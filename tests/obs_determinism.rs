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
//! exactly (the same equality the chaos metric oracle grades). Last, a
//! pinned digest of every protocol's execution under six conditions
//! holds the simulator itself to the runs it produced when the digest
//! was pinned, with a per-run table that names the runs a change moved,
//! and a second digest does the same for four sharded runs.

use clock_rsm::{ClockRsm, ClockRsmConfig};
use harness::{
    run_latency, run_sharded, ExperimentConfig, ExperimentResult, Fault, ProtocolChoice,
    ShardedConfig, WorkloadApp,
};
use kvstore::KvStore;
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use proptest::prelude::*;
use rsm_chaos::{exec, Knobs, ProtocolKind, Schedule};
use rsm_core::obs::TraceStage;
use rsm_core::time::{Micros, MILLIS};
use rsm_core::{
    BatchPolicy, ClientId, Committed, LatencyMatrix, LeaseConfig, Membership, Protocol, ReplicaId,
    Reply,
};
use rsm_obs::{ObsConfig, Span};
use simnet::{Application, ClockModel, CpuModel, SimApi, SimConfig, Simulation};

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

/// FNV-1a over 64 bits: a hash fixed by its two constants, so a digest
/// computed with it means the same thing under every Rust release (the
/// standard library's `DefaultHasher` promises no such thing).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The workload, plus one running hash per replica of every command
/// that replica executes: virtual time, order hint, origin and id, in
/// execution order, recovery replays included.
struct Digesting<P> {
    workload: WorkloadApp<P>,
    commits: Vec<Fnv>,
}

impl<P: Protocol> Application<P> for Digesting<P> {
    fn on_init(&mut self, api: &mut SimApi<'_, P>) {
        self.workload.on_init(api);
    }

    fn on_reply(&mut self, client: ClientId, reply: Reply, api: &mut SimApi<'_, P>) {
        self.workload.on_reply(client, reply, api);
    }

    fn on_event(&mut self, key: u64, api: &mut SimApi<'_, P>) {
        self.workload.on_event(key, api);
    }

    fn on_commit(&mut self, replica: ReplicaId, c: &Committed, at: Micros) {
        self.workload.on_commit(replica, c, at);
        let id = c.cmd.id;
        let h = &mut self.commits[replica.index()];
        for v in [
            at,
            c.order_hint,
            u64::from(c.origin.as_u16()),
            u64::from(id.client.site().as_u16()),
            u64::from(id.client.number()),
            id.seq,
        ] {
            h.add(v);
        }
    }
}

/// The six conditions the pinned digest covers.
const CONDITIONS: [&str; 6] = [
    "fault-free",
    "crash and recover",
    "partition and heal",
    "clock jump and freeze",
    "cpu model, batch 64",
    "50% reads",
];

/// One small simnet run of `factory`'s protocol under `CONDITIONS[cond]`:
/// three replicas, retrying clients, observed (so the message counters
/// exist; observing does not change the run). Returns what the digests
/// fold, in order: each replica's commit-sequence hash, execution count
/// and sent-message count.
fn digest_run<P: Protocol + 'static>(
    cond: usize,
    factory: impl FnMut(ReplicaId) -> P + 'static,
) -> Vec<u64> {
    let r = ReplicaId::new;
    let lan = CONDITIONS[cond] == "cpu model, batch 64";
    let until = if lan { 300 * MILLIS } else { 1_500 * MILLIS };
    let mut sim_cfg = SimConfig::new(LatencyMatrix::uniform(3, if lan { 250 } else { 5_000 }))
        .seed(7 + cond as u64)
        .jitter_us(500)
        .clock_model(ClockModel::ntp(MILLIS))
        .observe(ObsConfig::all());
    if lan {
        sim_cfg = sim_cfg
            .cpu_model(CpuModel::default())
            .batch_policy(BatchPolicy::max(64));
    }
    let faults = match CONDITIONS[cond] {
        "crash and recover" => vec![
            (400 * MILLIS, Fault::Crash(r(2))),
            (900 * MILLIS, Fault::Recover(r(2))),
        ],
        "partition and heal" => vec![
            (400 * MILLIS, Fault::Partition(r(0), r(1))),
            (800 * MILLIS, Fault::Heal(r(0), r(1))),
        ],
        "clock jump and freeze" => vec![
            (400 * MILLIS, Fault::ClockJump(r(1), -30_000)),
            (700 * MILLIS, Fault::ClockFreeze(r(2), 60 * MILLIS)),
        ],
        _ => Vec::new(),
    };
    let mut workload = ExperimentConfig::new(LatencyMatrix::uniform(3, 5_000))
        .clients_per_site(if lan { 8 } else { 2 })
        .think_max_us(if lan { 0 } else { 20 * MILLIS })
        .value_bytes(16)
        .read_fraction(if CONDITIONS[cond] == "50% reads" {
            0.5
        } else {
            0.0
        })
        .warmup_us(100 * MILLIS)
        .duration_us(until - 100 * MILLIS)
        .record_ops(false)
        .client_retry_us(400 * MILLIS);
    workload.key_space = 100;
    workload.faults = faults;
    let app = Digesting {
        workload: WorkloadApp::new(&workload),
        commits: (0..3).map(|_| Fnv::new()).collect(),
    };
    let mut sim = Simulation::new(sim_cfg, factory, || Box::new(KvStore::new()), app);
    sim.run_until(until + 1_000 * MILLIS);
    let metrics = sim.metrics().expect("observed run");
    let mut values = Vec::new();
    for i in 0..3 {
        assert!(
            sim.commit_count(r(i as u16)) > 0,
            "{}: replica {i} executed nothing",
            CONDITIONS[cond]
        );
        values.push(sim.app().commits[i].0);
        values.push(sim.commit_count(r(i as u16)));
        values.push(metrics.counters[&format!("r{i}.net.msgs_sent")]);
    }
    values
}

/// The digest of every protocol's execution under every condition of
/// [`digest_run`]; see [`executions_match_the_pinned_digest`].
const PINNED_DIGEST: u64 = 0x46ae_b493_53e1_ebbb;

/// Each of the 24 runs behind [`PINNED_DIGEST`] hashed on its own, in
/// run order: protocol, condition, digest. Pinned with it, so a moved
/// execution names the runs it moved.
const PINNED_RUNS: [(&str, &str, u64); 24] = [
    ("Clock-RSM", "fault-free", 0x6054_daf8_4d65_0dfc),
    ("Paxos", "fault-free", 0x284d_c1a8_7a0c_d747),
    ("Paxos-bcast", "fault-free", 0x2916_4c7a_2e70_7d27),
    ("Mencius-bcast", "fault-free", 0x0c7a_9fa1_b3cf_d6e3),
    ("Clock-RSM", "crash and recover", 0xb12d_bb7c_fef9_b115),
    ("Paxos", "crash and recover", 0xf65a_f709_b2ed_9e6f),
    ("Paxos-bcast", "crash and recover", 0x0ebc_7957_8939_4ed8),
    ("Mencius-bcast", "crash and recover", 0x4f6b_d3c4_d9c1_ea3e),
    ("Clock-RSM", "partition and heal", 0xb6d3_c66b_0392_08f8),
    ("Paxos", "partition and heal", 0xbd06_4a57_613a_3630),
    ("Paxos-bcast", "partition and heal", 0x2803_d2d8_628d_4f6a),
    ("Mencius-bcast", "partition and heal", 0x308a_6390_0429_32f0),
    ("Clock-RSM", "clock jump and freeze", 0x846a_2850_bead_ea5d),
    ("Paxos", "clock jump and freeze", 0x0078_eceb_84cf_4bdd),
    (
        "Paxos-bcast",
        "clock jump and freeze",
        0xd985_4f32_44f7_3763,
    ),
    (
        "Mencius-bcast",
        "clock jump and freeze",
        0xd859_c1b9_fdac_c1f5,
    ),
    ("Clock-RSM", "cpu model, batch 64", 0xe8a3_a6a2_b576_679f),
    ("Paxos", "cpu model, batch 64", 0x1ad8_2d2c_b2d4_9b31),
    ("Paxos-bcast", "cpu model, batch 64", 0xa819_352d_59d0_f912),
    (
        "Mencius-bcast",
        "cpu model, batch 64",
        0x66a6_b855_d5fe_9eaa,
    ),
    ("Clock-RSM", "50% reads", 0xc7d3_f7f3_edcb_fb9a),
    ("Paxos", "50% reads", 0xc3ac_3fd1_fa01_bb0a),
    ("Paxos-bcast", "50% reads", 0xd1b0_5fad_6ad8_02c0),
    ("Mencius-bcast", "50% reads", 0x6f45_82ea_5167_ede7),
];

/// Every protocol, under six conditions, executes exactly the commands,
/// at exactly the virtual times and in exactly the order, and sends
/// exactly the messages it did when this constant was pinned. A change
/// that only moves code (a driver refactor, a new abstraction) must
/// leave it alone; that is what this test is for. A change that alters
/// execution on purpose updates the constant and the per-run table, and
/// says why in CHANGES.md.
#[test]
fn executions_match_the_pinned_digest() {
    let lease = LeaseConfig::after(400 * MILLIS);
    let members = Membership::uniform(3);
    let mut digest = Fnv::new();
    let mut pinned = PINNED_RUNS.iter();
    let mut moved = Vec::new();
    let mut fold = |protocol: &str, cond: usize, values: Vec<u64>| {
        let mut run = Fnv::new();
        for v in values {
            digest.add(v);
            run.add(v);
        }
        let &(p, c, want) = pinned.next().expect("a pinned digest per run");
        assert_eq!((p, c), (protocol, CONDITIONS[cond]), "run order");
        if run.0 != want {
            moved.push(format!("{protocol} / {c}: got {:#018x}", run.0));
        }
    };
    for cond in 0..CONDITIONS.len() {
        let m = members.clone();
        let values = digest_run(cond, move |id| {
            let cfg = ClockRsmConfig::default().with_failure_detection(Some(400 * MILLIS));
            ClockRsm::new(id, m.clone(), cfg)
        });
        fold("Clock-RSM", cond, values);
        for (name, variant) in [
            ("Paxos", PaxosVariant::Plain),
            ("Paxos-bcast", PaxosVariant::Bcast),
        ] {
            let m = members.clone();
            let values = digest_run(cond, move |id| {
                MultiPaxos::new(id, m.clone(), ReplicaId::new(1), variant).with_failover(lease)
            });
            fold(name, cond, values);
        }
        let m = members.clone();
        let values = digest_run(cond, move |id| MenciusBcast::new(id, m.clone()));
        fold("Mencius-bcast", cond, values);
    }
    assert!(
        moved.is_empty(),
        "executions changed:\n{}",
        moved.join("\n")
    );
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "execution changed: got {:#018x}",
        digest.0
    );
}

/// The digest of the four sharded runs of
/// [`sharded_executions_match_the_pinned_digest`].
const PINNED_SHARDED_DIGEST: u64 = 0xc9d4_c4e2_feb7_4295;

/// The sharded driver's twin of [`executions_match_the_pinned_digest`]:
/// four 2-shard runs (Clock-RSM with snapshot reads under NTP skew,
/// Clock-RSM through a shard-scoped crash and recovery, and the
/// Paxos-bcast and Mencius fallbacks) commit exactly what they did when
/// the constant was pinned — per shard and replica the commit counts,
/// commit times and log lengths; per shard the read and write counts
/// and medians; and the snapshot reads' count, latencies and verdict.
#[test]
fn sharded_executions_match_the_pinned_digest() {
    let base = |seed: u64| {
        ExperimentConfig::new(LatencyMatrix::uniform(3, 5_000))
            .seed(seed)
            .clients_per_site(3)
            .think_max_us(10 * MILLIS)
            .warmup_us(200 * MILLIS)
            .duration_us(800 * MILLIS)
    };
    let reads = |seed| ShardedConfig::new(base(seed).read_fraction(0.5), 2).snapshot_mix(0.3, 3);
    let reconfig = ClockRsmConfig::default()
        .with_delta_us(Some(50 * MILLIS))
        .with_failure_detection(Some(400 * MILLIS));
    let runs = [
        (
            ProtocolChoice::clock_rsm(),
            ShardedConfig::new(base(1).read_fraction(0.5).clock(ClockModel::ntp(MILLIS)), 2)
                .snapshot_mix(0.3, 3),
        ),
        (
            ProtocolChoice::clock_rsm_with(reconfig),
            ShardedConfig::new(base(2).client_retry_us(400 * MILLIS), 2)
                .shard_fault(300 * MILLIS, 0, Fault::Crash(ReplicaId::new(1)))
                .shard_fault(600 * MILLIS, 0, Fault::Recover(ReplicaId::new(1))),
        ),
        (ProtocolChoice::paxos_bcast(0), reads(3)),
        (ProtocolChoice::mencius(), reads(4)),
    ];
    let mut digest = Fnv::new();
    for (choice, cfg) in runs {
        let r = run_sharded(choice, &cfg);
        assert!(r.all_ok(), "{}: {:?}", r.protocol, r.aggregate.checks);
        for shard in &r.per_shard {
            for i in 0..shard.commit_counts.len() {
                digest.add(shard.commit_counts[i]);
                digest.add(shard.log_lens[i] as u64);
                digest.add(shard.commit_times[i].len() as u64);
                for &t in &shard.commit_times[i] {
                    digest.add(t);
                }
            }
            digest.add(shard.read_count as u64);
            digest.add(shard.write_count as u64);
            digest.add(shard.read_p50_ms.to_bits());
            digest.add(shard.write_p50_ms.to_bits());
        }
        digest.add(r.snapshot_count as u64);
        digest.add(r.snapshot_p50_ms.to_bits());
        digest.add(r.snapshot_p99_ms.to_bits());
        digest.add(u64::from(r.snapshot_ok));
    }
    assert_eq!(
        digest.0, PINNED_SHARDED_DIGEST,
        "sharded execution changed: got {:#018x}",
        digest.0
    );
}
