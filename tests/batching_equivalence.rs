//! The batching determinism contract: coalescing client requests into
//! batches must never corrupt the committed history.
//!
//! Each case drives an **open-loop, scripted** workload (fixed commands
//! at fixed virtual times — no reply feedback, so batched and unbatched
//! runs see the identical offered load) on random topologies with random
//! skew, runs the cluster to quiescence, and compares the committed
//! command sequences across batch sizes:
//!
//! * **Single-origin** runs must commit the *identical sequence* at every
//!   replica whatever the batch size (the total order is the origin's
//!   submission order, which batching must preserve exactly).
//! * **Multi-origin** runs must commit the *identical set* (nothing
//!   dropped, nothing duplicated), with all replicas of each run agreeing
//!   on one total order and converging to equal snapshots. The
//!   cross-origin interleaving may legitimately differ — batching changes
//!   timing, not correctness.
//!
//! Every batch cap is held to the contract, including across
//! **crash/recovery schedules**: a replica crashing mid-run and
//! recovering (losing its volatile state and any requests delivered
//! while down, replaying its stable log, catching up via the protocol's
//! retransmission machinery) must leave the surviving replicas'
//! committed sequence identical across policies.

use std::collections::BTreeSet;

use bytes::Bytes;
use clock_rsm::{ClockRsm, ClockRsmConfig};
use kvstore::{KvOp, KvStore};
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use proptest::prelude::*;
use rsm_core::command::{Command, CommandId, Reply};
use rsm_core::config::Membership;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::Protocol;
use rsm_core::time::{Micros, MILLIS};
use rsm_core::{BatchPolicy, LatencyMatrix};
use simnet::sim::{Application, SimApi};
use simnet::{ClockModel, SimConfig, Simulation};

/// A fixed submission plan: `(time, site, burst)` — `burst` commands
/// enter `site`'s inbox at the same instant, which is what gives the
/// driver something to coalesce.
#[derive(Debug, Clone)]
struct Plan {
    subs: Vec<(Micros, u16, u8)>,
}

/// A scripted crash: `victim` goes down at `down_at` and recovers at
/// `up_at` (virtual µs).
type CrashPlan = (u16, Micros, Micros);

struct ScriptedApp {
    plan: Plan,
    crash: Option<CrashPlan>,
    issued: u64,
}

impl<P: Protocol> Application<P> for ScriptedApp {
    fn on_init(&mut self, api: &mut SimApi<'_, P>) {
        for (i, &(at, _, _)) in self.plan.subs.iter().enumerate() {
            api.schedule(at, i as u64);
        }
        if let Some((victim, down_at, up_at)) = self.crash {
            api.crash(ReplicaId::new(victim), down_at);
            api.recover(ReplicaId::new(victim), up_at);
        }
    }

    fn on_event(&mut self, key: u64, api: &mut SimApi<'_, P>) {
        let (_, site, burst) = self.plan.subs[key as usize];
        for _ in 0..burst {
            self.issued += 1;
            let id = CommandId::new(ClientId::new(ReplicaId::new(site), 0), self.issued);
            let op = KvOp::put(self.issued.to_be_bytes().to_vec(), b"v".to_vec());
            api.submit(ReplicaId::new(site), Command::new(id, op.encode()));
        }
    }

    fn on_reply(&mut self, _c: ClientId, _r: Reply, _api: &mut SimApi<'_, P>) {}
}

/// Runs a scripted plan under one protocol and batch size to quiescence;
/// returns each replica's committed id sequence plus the snapshots.
fn run_scripted<P, F>(
    factory: F,
    matrix: &LatencyMatrix,
    seed: u64,
    skew_us: u64,
    batch: BatchPolicy,
    plan: &Plan,
) -> (Vec<Vec<CommandId>>, Vec<Bytes>)
where
    P: Protocol + 'static,
    F: FnMut(ReplicaId) -> P + 'static,
{
    run_scripted_with_crash(factory, matrix, seed, skew_us, batch, plan, None)
}

#[allow(clippy::too_many_arguments)]
fn run_scripted_with_crash<P, F>(
    factory: F,
    matrix: &LatencyMatrix,
    seed: u64,
    skew_us: u64,
    batch: BatchPolicy,
    plan: &Plan,
    crash: Option<CrashPlan>,
) -> (Vec<Vec<CommandId>>, Vec<Bytes>)
where
    P: Protocol + 'static,
    F: FnMut(ReplicaId) -> P + 'static,
{
    let n = matrix.len();
    let cfg = SimConfig::new(matrix.clone())
        .seed(seed)
        .clock_model(ClockModel::ntp(skew_us))
        .batch_policy(batch);
    let mut sim = Simulation::new(
        cfg,
        factory,
        || Box::new(KvStore::new()),
        ScriptedApp {
            plan: plan.clone(),
            crash,
            issued: 0,
        },
    );
    // All submissions land within ~2.2 s (random plans stop at 300 ms;
    // crash cases append a post-recovery tail out to 2.15 s); several
    // seconds of slack let every protocol quiesce (clock-time broadcasts
    // keep Clock-RSM moving; the others finish off their in-flight
    // messages).
    sim.run_until(10_000 * MILLIS);
    let histories = (0..n as u16)
        .map(|r| {
            sim.commits(ReplicaId::new(r))
                .iter()
                .map(|c| c.cmd_id)
                .collect()
        })
        .collect();
    let snaps = (0..n as u16)
        .map(|r| sim.snapshot(ReplicaId::new(r)))
        .collect();
    (histories, snaps)
}

fn total_commands(plan: &Plan) -> usize {
    plan.subs.iter().map(|&(_, _, b)| b as usize).sum()
}

/// Checks one run's internal consistency and returns replica 0's history.
fn check_one_run(
    histories: &[Vec<CommandId>],
    snaps: &[Bytes],
    expected_total: usize,
) -> Vec<CommandId> {
    for h in histories {
        assert_eq!(
            h.len(),
            expected_total,
            "a quiesced run must commit every submitted command"
        );
        assert_eq!(histories[0], *h, "replicas disagree on the total order");
    }
    for s in snaps {
        assert_eq!(snaps[0], *s, "replica snapshots diverged");
    }
    histories[0].clone()
}

fn arb_plan(n_sites: u16, single_origin: bool) -> impl Strategy<Value = Plan> {
    proptest::collection::vec((0u64..300_000, 0u16..n_sites, 1u8..8), 5..25).prop_map(
        move |mut subs| {
            if single_origin {
                for s in &mut subs {
                    s.1 = 0;
                }
            }
            Plan { subs }
        },
    )
}

fn arb_matrix(n: usize) -> impl Strategy<Value = LatencyMatrix> {
    proptest::collection::vec(2_000u64..40_000, n * (n - 1) / 2).prop_map(move |vals| {
        let mut m = vec![vec![0u64; n]; n];
        let mut it = vals.into_iter();
        #[allow(clippy::needless_range_loop)] // triangular fill is clearest with indices
        for i in 0..n {
            for j in (i + 1)..n {
                let v = it.next().expect("enough samples");
                m[i][j] = v;
                m[j][i] = v;
            }
        }
        LatencyMatrix::from_one_way_micros(m)
    })
}

/// The policies every unbatched baseline is compared against.
fn policies() -> Vec<(&'static str, BatchPolicy)> {
    vec![
        ("static4", BatchPolicy::max(4)),
        ("static8", BatchPolicy::max(8)),
        ("static32", BatchPolicy::max(32)),
    ]
}

/// The (smaller) policy set for the slower crash/recovery cases.
fn crash_policies() -> Vec<(&'static str, BatchPolicy)> {
    vec![
        ("static8", BatchPolicy::max(8)),
        ("static32", BatchPolicy::max(32)),
    ]
}

/// Appends a deterministic tail of submissions after every crash window
/// (400 ms – 2.2 s), so the recovered replica always sees post-recovery
/// traffic — the trigger for the protocols' traffic-driven catch-up
/// machinery (Clock-RSM rejoin, Paxos fill requests and stall-confirmed
/// transfers, Mencius gap resyncs).
fn with_tail(mut plan: Plan, site: u16) -> Plan {
    for i in 0..8u64 {
        plan.subs.push((400_000 + i * 250_000, site, 2));
    }
    plan
}

/// Checks one crash run: the replicas that never crashed must agree on
/// one total order and equal snapshots; returns the first survivor's
/// history. The victim is deliberately left out of the assertions —
/// its recorded history legitimately restarts at recovery and state
/// installs, and whether it fully catches up by quiescence is a
/// *liveness* property of the recovery subsystem (checkpoint transfer,
/// fill retransmission — covered by `long_outage`/`failover`), not the
/// batching-equivalence contract under test here.
fn check_crash_run(histories: &[Vec<CommandId>], snaps: &[Bytes], victim: u16) -> Vec<CommandId> {
    let survivors: Vec<usize> = (0..histories.len())
        .filter(|&i| i != victim as usize)
        .collect();
    for &i in &survivors[1..] {
        assert_eq!(
            histories[survivors[0]], histories[i],
            "survivors disagree on the total order"
        );
        assert_eq!(snaps[survivors[0]], snaps[i], "survivor snapshots diverged");
    }
    histories[survivors[0]].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Clock-RSM, single origin: the committed sequence is bit-identical
    /// across every batch size.
    #[test]
    fn clock_rsm_single_origin_sequence_identical(
        matrix in arb_matrix(3),
        plan in arb_plan(3, true),
        seed in 0u64..1_000,
        skew_us in 0u64..10_000,
    ) {
        let total = total_commands(&plan);
        let factory = |n: u16| move |id| ClockRsm::new(
            id, Membership::uniform(n), ClockRsmConfig::default());
        let (h0, s0) = run_scripted(
            factory(3), &matrix, seed, skew_us, BatchPolicy::DISABLED, &plan);
        let baseline = check_one_run(&h0, &s0, total);
        for (name, policy) in policies() {
            let (h, s) = run_scripted(
                factory(3), &matrix, seed, skew_us, policy, &plan);
            let seq = check_one_run(&h, &s, total);
            prop_assert_eq!(&baseline, &seq, "{} changed the sequence", name);
        }
    }

    /// Clock-RSM, all origins active: every batch size commits the same
    /// command set, and each run is internally consistent.
    #[test]
    fn clock_rsm_multi_origin_set_identical(
        matrix in arb_matrix(3),
        plan in arb_plan(3, false),
        seed in 0u64..1_000,
        skew_us in 0u64..10_000,
    ) {
        let total = total_commands(&plan);
        let factory = |n: u16| move |id| ClockRsm::new(
            id, Membership::uniform(n), ClockRsmConfig::default());
        let (h0, s0) = run_scripted(
            factory(3), &matrix, seed, skew_us, BatchPolicy::DISABLED, &plan);
        let baseline: BTreeSet<CommandId> =
            check_one_run(&h0, &s0, total).into_iter().collect();
        for (name, policy) in policies() {
            let (h, s) = run_scripted(
                factory(3), &matrix, seed, skew_us, policy, &plan);
            let set: BTreeSet<CommandId> =
                check_one_run(&h, &s, total).into_iter().collect();
            prop_assert_eq!(&baseline, &set, "{} changed the committed set", name);
        }
    }

    /// Paxos-bcast, single origin through the leader funnel: identical
    /// sequence across batch sizes (instances are assigned in forward
    /// order).
    #[test]
    fn paxos_single_origin_sequence_identical(
        matrix in arb_matrix(3),
        plan in arb_plan(3, true),
        seed in 0u64..1_000,
    ) {
        let total = total_commands(&plan);
        let factory = |n: u16| move |id| MultiPaxos::new(
            id, Membership::uniform(n), ReplicaId::new(1), PaxosVariant::Bcast);
        let (h0, s0) = run_scripted(
            factory(3), &matrix, seed, 500, BatchPolicy::DISABLED, &plan);
        let baseline = check_one_run(&h0, &s0, total);
        for (name, policy) in policies() {
            let (h, s) = run_scripted(
                factory(3), &matrix, seed, 500, policy, &plan);
            let seq = check_one_run(&h, &s, total);
            prop_assert_eq!(&baseline, &seq, "{} changed the sequence", name);
        }
    }

    /// Mencius, single origin across the strided slot space: identical
    /// sequence across batch sizes.
    #[test]
    fn mencius_single_origin_sequence_identical(
        matrix in arb_matrix(3),
        plan in arb_plan(3, true),
        seed in 0u64..1_000,
    ) {
        let total = total_commands(&plan);
        let factory = |n: u16| move |id| MenciusBcast::new(id, Membership::uniform(n));
        let (h0, s0) = run_scripted(
            factory(3), &matrix, seed, 500, BatchPolicy::DISABLED, &plan);
        let baseline = check_one_run(&h0, &s0, total);
        for (name, policy) in policies() {
            let (h, s) = run_scripted(
                factory(3), &matrix, seed, 500, policy, &plan);
            let seq = check_one_run(&h, &s, total);
            prop_assert_eq!(&baseline, &seq, "{} changed the sequence", name);
        }
    }
}

// ---------------------------------------------------------------------
// Crash/recovery schedules
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Clock-RSM with failure handling: replica 2 crashes mid-plan and
    /// recovers; the failure detector reconfigures it out, rejoin
    /// reconfigures it back in, and the surviving replicas' committed
    /// sequence must be identical across batch caps.
    #[test]
    fn clock_rsm_crash_recovery_equivalence(
        matrix in arb_matrix(3),
        plan in arb_plan(3, true),
        seed in 0u64..1_000,
        down_at in 20_000u64..150_000,
        outage in 50_000u64..200_000,
    ) {
        let plan = with_tail(plan, 0);
        let crash = Some((2u16, down_at, down_at + outage));
        let factory = |n: u16| move |id| ClockRsm::new(
            id,
            Membership::uniform(n),
            ClockRsmConfig::default()
                .with_delta_us(Some(50 * MILLIS))
                .with_failure_detection(Some(400 * MILLIS)),
        );
        let (h0, s0) = run_scripted_with_crash(
            factory(3), &matrix, seed, 500, BatchPolicy::DISABLED, &plan, crash);
        let baseline = check_crash_run(&h0, &s0, 2);
        for (name, policy) in crash_policies() {
            let (h, s) = run_scripted_with_crash(
                factory(3), &matrix, seed, 500, policy, &plan, crash);
            let seq = check_crash_run(&h, &s, 2);
            prop_assert_eq!(&baseline, &seq,
                "{} changed the sequence across a crash", name);
        }
    }

    /// Clock-RSM, all origins active through the same crash schedule:
    /// commands submitted to the down replica are lost identically in
    /// every run (arrival times are policy-independent), so the
    /// committed *set* must still be identical across policies.
    #[test]
    fn clock_rsm_crash_recovery_multi_origin_set_identical(
        matrix in arb_matrix(3),
        plan in arb_plan(3, false),
        seed in 0u64..1_000,
        down_at in 20_000u64..150_000,
        outage in 50_000u64..200_000,
    ) {
        let plan = with_tail(plan, 0);
        let crash = Some((2u16, down_at, down_at + outage));
        let factory = |n: u16| move |id| ClockRsm::new(
            id,
            Membership::uniform(n),
            ClockRsmConfig::default()
                .with_delta_us(Some(50 * MILLIS))
                .with_failure_detection(Some(400 * MILLIS)),
        );
        let (h0, s0) = run_scripted_with_crash(
            factory(3), &matrix, seed, 500, BatchPolicy::DISABLED, &plan, crash);
        let baseline: BTreeSet<CommandId> =
            check_crash_run(&h0, &s0, 2).into_iter().collect();
        for (name, policy) in crash_policies() {
            let (h, s) = run_scripted_with_crash(
                factory(3), &matrix, seed, 500, policy, &plan, crash);
            let set: BTreeSet<CommandId> =
                check_crash_run(&h, &s, 2).into_iter().collect();
            prop_assert_eq!(&baseline, &set,
                "{} changed the committed set across a crash", name);
        }
    }

    /// Paxos-bcast: follower 2 crashes and recovers (leader 1 and the
    /// origin survive); fill requests repair its vouch gap when the
    /// post-recovery tail arrives. Identical survivor sequence across
    /// policies.
    #[test]
    fn paxos_crash_recovery_equivalence(
        matrix in arb_matrix(3),
        plan in arb_plan(3, true),
        seed in 0u64..1_000,
        down_at in 20_000u64..150_000,
        outage in 50_000u64..200_000,
    ) {
        let plan = with_tail(plan, 0);
        let crash = Some((2u16, down_at, down_at + outage));
        let factory = |n: u16| move |id| MultiPaxos::new(
            id, Membership::uniform(n), ReplicaId::new(1), PaxosVariant::Bcast);
        let (h0, s0) = run_scripted_with_crash(
            factory(3), &matrix, seed, 500, BatchPolicy::DISABLED, &plan, crash);
        let baseline = check_crash_run(&h0, &s0, 2);
        for (name, policy) in crash_policies() {
            let (h, s) = run_scripted_with_crash(
                factory(3), &matrix, seed, 500, policy, &plan, crash);
            let seq = check_crash_run(&h, &s, 2);
            prop_assert_eq!(&baseline, &seq,
                "{} changed the sequence across a crash", name);
        }
    }

    /// Mencius: owner 2 crashes and recovers; skip promises and gap
    /// fills resolve its slots once the post-recovery tail lands.
    /// Identical survivor sequence across policies.
    #[test]
    fn mencius_crash_recovery_equivalence(
        matrix in arb_matrix(3),
        plan in arb_plan(3, true),
        seed in 0u64..1_000,
        down_at in 20_000u64..150_000,
        outage in 50_000u64..200_000,
    ) {
        let plan = with_tail(plan, 0);
        let crash = Some((2u16, down_at, down_at + outage));
        let factory = |n: u16| move |id| MenciusBcast::new(id, Membership::uniform(n));
        let (h0, s0) = run_scripted_with_crash(
            factory(3), &matrix, seed, 500, BatchPolicy::DISABLED, &plan, crash);
        let baseline = check_crash_run(&h0, &s0, 2);
        for (name, policy) in crash_policies() {
            let (h, s) = run_scripted_with_crash(
                factory(3), &matrix, seed, 500, policy, &plan, crash);
            let seq = check_crash_run(&h, &s, 2);
            prop_assert_eq!(&baseline, &seq,
                "{} changed the sequence across a crash", name);
        }
    }
}
