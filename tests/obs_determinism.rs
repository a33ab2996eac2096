//! Observability determinism and span-balance guarantees.
//!
//! The `rsm-obs` layer rides inside the deterministic simulator, so it
//! inherits the simulator's contract: the same seed must reproduce the
//! same metric snapshots and the same span stream, byte for byte —
//! instrumented replays of a chaos failure stay replays. On top of
//! that, spans must stay *balanced* under arbitrary fault programs:
//! every completed span carries a full submitted→replied pipeline with
//! coherent stage ordering, span keys never duplicate, and the
//! executed-command counters mirror each replica's commit history
//! exactly (the same equality the chaos metric oracle grades).

use clock_rsm::ClockRsmConfig;
use harness::{run_latency, ExperimentConfig, ExperimentResult, Fault, ProtocolChoice};
use proptest::prelude::*;
use rsm_chaos::{exec, Knobs, ProtocolKind, Schedule};
use rsm_core::obs::TraceStage;
use rsm_core::time::MILLIS;
use rsm_core::{BatchPolicy, LatencyMatrix, ReplicaId};
use rsm_obs::{ObsConfig, Span};
use simnet::{ClockModel, CpuModel};

/// A small instrumented geo run: three sites, 25 ms one-way, mixed
/// reads and writes, full span sampling.
fn traced_cfg(seed: u64) -> ExperimentConfig {
    ExperimentConfig::new(LatencyMatrix::uniform(3, 25_000))
        .seed(seed)
        .clients_per_site(3)
        .think_max_us(15 * MILLIS)
        .read_fraction(0.5)
        .clock(ClockModel::ntp(MILLIS))
        .warmup_us(100 * MILLIS)
        .duration_us(900 * MILLIS)
        .record_ops(false)
        .observe(ObsConfig::all())
}

#[test]
fn same_seed_runs_are_byte_identical_snapshots_and_spans() {
    for choice in [
        ProtocolChoice::clock_rsm(),
        ProtocolChoice::paxos(0),
        ProtocolChoice::mencius(),
    ] {
        let a = run_latency(choice.clone(), &traced_cfg(7));
        let b = run_latency(choice, &traced_cfg(7));
        assert!(!a.spans.is_empty(), "{}: no spans traced", a.protocol);
        assert_eq!(
            a.metrics, b.metrics,
            "{}: metric snapshots diverged across identical runs",
            a.protocol
        );
        assert_eq!(
            a.spans, b.spans,
            "{}: span streams diverged across identical runs",
            a.protocol
        );
        assert_eq!(
            a.metrics.as_ref().unwrap().to_json(),
            b.metrics.as_ref().unwrap().to_json(),
            "{}: snapshot JSON export diverged",
            a.protocol
        );
    }
}

/// Asserts the span-balance invariants on one instrumented result.
fn assert_spans_balanced(r: &ExperimentResult) {
    let mut keys = std::collections::HashSet::new();
    for s in &r.spans {
        assert!(
            keys.insert(s.key),
            "{}: span key {:#x} completed twice",
            r.protocol,
            s.key
        );
        assert_balanced_span(r.protocol, s);
    }
    // Every open span was at least submitted, and no open span also
    // appears in the completed set (terminal states are terminal).
    let metrics = r.metrics.as_ref().expect("observed run");
    for (i, &commits) in r.commit_counts.iter().enumerate() {
        let counted = metrics
            .counters
            .get(&format!("r{i}.commands.executed"))
            .copied()
            .unwrap_or(0);
        assert_eq!(
            counted, commits,
            "{}: replica {i} executed-counter drifted from its commit history",
            r.protocol
        );
    }
    // Counter monotonicity over the post-window tail.
    let mid = r.metrics_mid.as_ref().expect("observed run");
    for (name, &v) in &mid.counters {
        let f = metrics.counters.get(name).copied().unwrap_or(0);
        assert!(
            f >= v,
            "{}: counter {name} regressed {v} -> {f}",
            r.protocol
        );
    }
}

/// One completed span must carry the full sequential pipeline in
/// coherent order. `Replicated`/`Stable` are the overlapped commit
/// conditions: each sits between `Proposed` and the commit when
/// present (Paxos stamps them at the leader, whose clock is the same
/// virtual timeline).
fn assert_balanced_span(protocol: &str, s: &Span) {
    use TraceStage::*;
    let stage = |t: TraceStage| s.stage(t.index());
    let submitted = stage(Submitted).expect("completed span lost its begin stamp");
    let replied = stage(Replied).expect("completed span without a reply stamp");
    assert!(
        submitted <= replied,
        "{protocol}: span {:#x} replied before submission",
        s.key
    );
    // The sequential chain, over the stages that are present.
    let chain = [Submitted, Proposed, Committed, Executed, Replied];
    let mut last = 0u64;
    for t in chain {
        if let Some(at) = stage(t) {
            assert!(
                at >= last,
                "{protocol}: span {:#x} stage {} at {at} precedes {last}",
                s.key,
                t.name()
            );
            last = at;
        }
    }
    // Overlapped commit conditions stay within [Proposed, Committed].
    if let (Some(p), Some(c)) = (stage(Proposed), stage(Committed)) {
        for t in [Replicated, Stable] {
            if let Some(at) = stage(t) {
                assert!(
                    at >= p && at <= c,
                    "{protocol}: span {:#x} stage {} at {at} outside propose..commit {p}..{c}",
                    s.key,
                    t.name()
                );
            }
        }
    }
}

/// A crash-and-recover chaos schedule built on the chaos executor's own
/// protocol configurations (failure detection for Clock-RSM, leases for
/// Paxos), so the run survives the faults the way the swarm's do.
fn crash_schedule(protocol: ProtocolKind, seed: u64, crash_at_ms: u64) -> Schedule {
    let crash = crash_at_ms * MILLIS;
    Schedule {
        seed,
        protocol,
        knobs: Knobs {
            replicas: 3,
            clients_per_site: 2,
            read_pct: 20,
            cas_pct: 0,
            batch_max: 0,
            checkpoint_every: 0,
            session_window: 0,
            pre_vote: false,
            horizon_ms: 4_000,
            latency_us: 5_000,
            jitter_us: 0,
        },
        entries: vec![
            (crash, Fault::Crash(ReplicaId::new(2))),
            (crash + 800 * MILLIS, Fault::Recover(ReplicaId::new(2))),
        ],
        canary: false,
    }
}

#[test]
fn spans_stay_balanced_across_crash_and_recovery() {
    for protocol in ProtocolKind::ALL {
        let s = crash_schedule(protocol, 11, 1_200);
        let r = run_latency(exec::protocol_choice(&s), &exec::experiment_config(&s));
        assert_eq!(
            exec::evaluate(&s, &r),
            None,
            "{}: oracle failure",
            protocol.name()
        );
        assert!(!r.spans.is_empty(), "{}: no spans", protocol.name());
        assert_spans_balanced(&r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Span balance is schedule-independent: random seeds and crash
    /// points never produce an orphan, duplicate, or out-of-order span,
    /// and the executed counters never drift from the commit histories.
    #[test]
    fn span_balance_survives_random_crash_points(
        seed in 0u64..1_000,
        crash_at_ms in 400u64..2_200,
    ) {
        let s = crash_schedule(ProtocolKind::ClockRsm, seed, crash_at_ms);
        let r = run_latency(exec::protocol_choice(&s), &exec::experiment_config(&s));
        prop_assert_eq!(exec::evaluate(&s, &r), None);
        prop_assert!(!r.spans.is_empty());
        assert_spans_balanced(&r);
    }
}

/// Asserts that an observed run and a plain run of the same
/// configuration are the same execution.
fn assert_same_run(label: &str, traced: &ExperimentResult, plain: &ExperimentResult) {
    macro_rules! same {
        ($($field:ident),+) => {$(
            assert_eq!(
                traced.$field, plain.$field,
                "{label}: observing the run changed `{}`",
                stringify!($field)
            );
        )+};
    }
    same!(
        commit_counts,
        log_lens,
        read_count,
        write_count,
        cas_count,
        cas_failures,
        throughput_kops,
        p50_ms,
        p99_ms,
        read_p50_ms,
        read_p99_ms,
        write_p50_ms,
        write_p99_ms,
        snapshots_agree
    );
    // Thousands of samples each: report which differs, not the dump.
    assert!(
        traced.commit_times == plain.commit_times,
        "{label}: observing the run changed the virtual commit times"
    );
    assert!(
        format!("{:?}", traced.site_stats) == format!("{:?}", plain.site_stats),
        "{label}: observing the run changed the per-site latency samples"
    );
    assert_eq!(
        format!("{:?}", traced.checks),
        format!("{:?}", plain.checks),
        "{label}: observing the run changed the checker report"
    );
}

/// `Protocol::obs_poll` is read-only by contract and instrumentation
/// consumes no virtual time, so turning observation on must not move a
/// single commit: same counts, same logs, same virtual commit times,
/// same client-side latencies. Clock-RSM's poll reads the clock, and a
/// clock read is recorded by the monotonic stamper — simnet polls a
/// throwaway copy of the clock so that read leaves no trace. The chaos
/// swarm instruments every run it searches, so this equality is what
/// makes its verdicts hold for plain runs.
#[test]
fn observation_does_not_change_the_run() {
    for protocol in ProtocolKind::ALL {
        let crash = crash_schedule(protocol, 11, 1_200);
        // Failure detection on for Clock-RSM at its default Δ (the 5 ms
        // CLOCKTIME cadence is what a recorded poll read used to shift);
        // the chaos executor's lease configurations for the rest.
        let choice = match protocol {
            ProtocolKind::ClockRsm => ProtocolChoice::clock_rsm_with(
                ClockRsmConfig::default().with_failure_detection(Some(400 * MILLIS)),
            ),
            _ => exec::protocol_choice(&crash),
        };
        let (_, ec2) = analysis::ec2::five_site_deployment();
        let shapes = [
            (
                "LAN saturating",
                ExperimentConfig::new(LatencyMatrix::uniform(3, 250))
                    .seed(11)
                    .clients_per_site(20)
                    .think_max_us(0)
                    .value_bytes(10)
                    .read_fraction(0.3)
                    .cpu(CpuModel::default())
                    .batch(BatchPolicy::max(8))
                    .warmup_us(50 * MILLIS)
                    .duration_us(250 * MILLIS),
            ),
            (
                "EC2 five sites",
                ExperimentConfig::new(ec2)
                    .seed(11)
                    .jitter_us(2 * MILLIS)
                    .clock(ClockModel::ntp(MILLIS))
                    .clients_per_site(3)
                    .think_max_us(15 * MILLIS)
                    .read_fraction(0.5)
                    .cas_fraction(0.3)
                    .warmup_us(100 * MILLIS)
                    .duration_us(1_500 * MILLIS),
            ),
            // Client retries on, as in every chaos run.
            ("crash and recover", exec::experiment_config(&crash)),
        ];
        for (shape, mut cfg) in shapes {
            let label = format!("{} / {shape}", protocol.name());
            let traced = run_latency(choice.clone(), &cfg.clone().observe(ObsConfig::all()));
            cfg.observe = None;
            let plain = run_latency(choice.clone(), &cfg);
            assert!(!traced.spans.is_empty(), "{label}: no spans traced");
            assert!(plain.spans.is_empty() && plain.metrics.is_none());
            assert!(
                plain.commit_counts.iter().all(|&c| c > 0),
                "{label}: nothing committed"
            );
            assert_same_run(&label, &traced, &plain);
        }
    }
}
