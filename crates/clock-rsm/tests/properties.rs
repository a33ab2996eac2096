//! Protocol-level property tests: drive a cluster of `ClockRsm` replicas
//! through randomized message schedules (respecting per-link FIFO, the
//! paper's channel assumption) with skewed clocks, and assert the paper's
//! safety claims directly:
//!
//! * Claim 1 — every replica executes commands in strictly increasing
//!   timestamp order;
//! * Claim 2 — all replicas execute the same total order;
//! * Agreement under full delivery — once every message drains, every
//!   replica has executed every command;
//! * Algorithm 1, command by command — after every delivery, a replica
//!   has committed exactly what the paper's per-command commit rule
//!   allows, however its batches' runs interleave.
//!
//! The scripted driver explores interleavings the discrete-event simulator (which
//! ties delivery order to latencies) cannot reach.

use std::collections::BTreeMap;

use bytes::Bytes;
use clock_rsm::{ClockRsm, ClockRsmConfig, RsmMsg};
use proptest::prelude::*;
use rsm_core::batch::Batch;
use rsm_core::command::{Command, CommandId};
use rsm_core::config::Membership;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::node::Script;
use rsm_core::protocol::{Protocol, TimerToken};
use rsm_core::time::{Micros, Timestamp};

/// `n` replicas with skewed clocks, broadcasting CLOCKTIME every
/// `delta_us` of quiet (Algorithm 2) when their timer fires.
fn cluster(n: usize, clock_offsets: &[Micros], delta_us: Option<Micros>) -> Script<ClockRsm> {
    let config = ClockRsmConfig::default().with_delta_us(delta_us);
    let replica = |i| {
        ClockRsm::new(
            ReplicaId::new(i as u16),
            Membership::uniform(n as u16),
            config,
        )
    };
    let mut s = Script::new((0..n).map(replica).collect());
    for (i, &offset) in clock_offsets.iter().enumerate() {
        s[i].clock = offset;
    }
    s
}

fn submit(s: &mut Script<ClockRsm>, at: usize, seq: u64) {
    let cmd = Command::new(
        CommandId::new(ClientId::new(ReplicaId::new(at as u16), 0), seq),
        Bytes::from_static(b"w"),
    );
    s.on(at, |p, ctx| p.on_client_batch(Batch::single(cmd), ctx));
    s.flush(at);
}

fn committed_ids(s: &Script<ClockRsm>, r: usize) -> Vec<CommandId> {
    s[r].executed.iter().map(|c| c.cmd.id).collect()
}

/// Algorithm 1's commit rule applied one `(ts, cmd)` at a time, smallest
/// timestamp first, over the messages one replica received: the
/// per-command reference a replica's merge of per-origin runs must
/// reproduce exactly.
struct Reference {
    pending: BTreeMap<Timestamp, CommandId>,
    /// `acked[k][o]`: replica `k` logged every prepare of `o` up to it.
    acked: Vec<Vec<Micros>>,
    latest_tv: Vec<Timestamp>,
    committed: Vec<CommandId>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Reference {
            pending: BTreeMap::new(),
            acked: vec![vec![0; n]; n],
            latest_tv: vec![Timestamp::ZERO; n],
            committed: Vec::new(),
        }
    }

    fn observe(&mut self, from: usize, msg: &RsmMsg) {
        match msg {
            RsmMsg::PrepareBatch {
                ts, origin, cmds, ..
            } => {
                for (i, cmd) in cmds.iter().enumerate() {
                    let t = Timestamp::new(ts.micros() + i as Micros, *origin);
                    self.pending.insert(t, cmd.id);
                    let o = origin.index();
                    self.latest_tv[o] = self.latest_tv[o].max(t);
                }
            }
            RsmMsg::PrepareOk {
                up_to, clock_ts, ..
            } => {
                self.latest_tv[from] = self.latest_tv[from].max(*clock_ts);
                let acked = &mut self.acked[from][up_to.replica().index()];
                *acked = (*acked).max(up_to.micros());
            }
            RsmMsg::ClockTime { ts, .. }
            | RsmMsg::ClockProbe { ts, .. }
            | RsmMsg::ClockEcho { ts, .. } => {
                self.latest_tv[from] = self.latest_tv[from].max(*ts);
            }
            _ => {}
        }
        let n = self.acked.len();
        while let Some((&ts, &id)) = self.pending.first_key_value() {
            let o = ts.replica().index();
            let acks = (0..n).filter(|&k| self.acked[k][o] >= ts.micros()).count();
            let stable = self.latest_tv.iter().min().expect("n > 0");
            if acks < n / 2 + 1 || ts > *stable {
                break;
            }
            self.pending.remove(&ts);
            self.committed.push(id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random submissions interleaved with random (FIFO) deliveries and
    /// timer fires, then a full drain: total order, timestamp order, and
    /// agreement must all hold.
    #[test]
    fn random_schedules_preserve_safety(
        n in 3usize..=5,
        offsets in proptest::collection::vec(1_000u64..500_000, 5),
        // (replica, action) stream: 0..n submit, n.. deliver choices.
        script in proptest::collection::vec((0usize..5, 0usize..25, any::<bool>()), 1..120),
    ) {
        let mut s = cluster(n, &offsets[..n], None);
        let mut seq = 0u64;
        for (who, link, fire) in script {
            let who = who % n;
            // Interleave: submit, then a few random delivery attempts.
            seq += 1;
            submit(&mut s, who, seq);
            let (from, to) = (link % n, (link / n) % n);
            s.deliver(from, to);
            if fire {
                s.fire_timer(who);
            }
        }
        s.drain();

        // Agreement: everyone executed every command.
        for r in 0..n {
            prop_assert_eq!(
                s[r].executed.len() as u64, seq,
                "replica {} executed {} of {} commands",
                r, s[r].executed.len(), seq
            );
        }
        // Total order (Claim 2): identical sequences everywhere.
        let reference = committed_ids(&s, 0);
        for r in 1..n {
            prop_assert_eq!(&committed_ids(&s, r), &reference, "replica {} diverged", r);
        }
        // Timestamp order (Claim 1): order hints strictly increase.
        for r in 0..n {
            let hints: Vec<u64> = s[r].executed.iter().map(|c| c.order_hint).collect();
            prop_assert!(hints.windows(2).all(|w| w[0] < w[1]), "replica {r} out of order");
        }
    }

    /// With wildly different clock offsets (up to half a second apart, vs
    /// zero network latency), the wait-out path (Algorithm 1 line 8) must
    /// keep acknowledgements timestamp-ordered and commits correct.
    #[test]
    fn extreme_skew_unit_level(
        offsets in proptest::collection::vec(1u64..500_000, 3),
        order in proptest::collection::vec(0usize..3, 3..30),
    ) {
        let mut s = cluster(3, &offsets, None);
        let mut seq = 0u64;
        for who in order {
            seq += 1;
            submit(&mut s, who, seq);
        }
        s.drain();
        let reference = committed_ids(&s, 0);
        prop_assert_eq!(reference.len() as u64, seq);
        for r in 1..3 {
            prop_assert_eq!(&committed_ids(&s, r), &reference);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Three origins whose batch runs (1–64 commands) overlap in micros,
    /// random per-link-FIFO delivery of PREPAREBATCH, PREPAREOK and
    /// CLOCKTIME, so stability, acks and other lanes cut runs mid-way:
    /// after every delivery each replica's committed sequence equals the
    /// per-command [`Reference`].
    #[test]
    fn run_merge_commits_what_the_per_command_rule_allows(
        offsets in proptest::collection::vec(1_000u64..1_040, 3),
        script in proptest::collection::vec((0usize..8, 0usize..9, 1usize..=64), 1..160),
    ) {
        let mut s = cluster(3, &offsets, Some(40));
        let mut refs: Vec<Reference> = (0..3).map(|_| Reference::new(3)).collect();
        let mut seq = 0u64;
        let mut deliver = |s: &mut Script<ClockRsm>, from: usize, to: usize| {
            let Some(msg) = s[from].links[to].front().cloned() else {
                return false;
            };
            s.deliver(from, to);
            refs[to].observe(from, &msg);
            prop_assert_eq!(&committed_ids(s, to), &refs[to].committed);
            true
        };
        for (action, arg, len) in script {
            match action {
                0 => {
                    let cmds = (0..len).map(|_| {
                        seq += 1;
                        Command::new(
                            CommandId::new(ClientId::new(ReplicaId::new(arg as u16 % 3), 0), seq),
                            Bytes::from_static(b"w"),
                        )
                    });
                    let at = arg % 3;
                    s.on(at, |p, ctx| p.on_client_batch(Batch::new(cmds.collect()), ctx));
                    s.flush(at);
                }
                1 => {
                    s.fire_timer(arg % 3);
                }
                _ => {
                    deliver(&mut s, arg % 3, arg / 3);
                }
            }
        }
        // Drain: every link in turn, then the timers, until quiet.
        loop {
            let mut progressed = false;
            for from in 0..3 {
                for to in 0..3 {
                    while deliver(&mut s, from, to) {
                        progressed = true;
                    }
                }
            }
            for r in 0..3 {
                // A CLOCKTIME tick re-arms forever: fire only the ack waits.
                while let Some(i) = s[r].timers.iter().position(|&(_, t)| t != TimerToken(1)) {
                    s.fire(r, i);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        prop_assert_eq!(committed_ids(&s, 0).len() as u64, refs[0].committed.len() as u64);
    }
}

/// Deterministic regression: concurrent submissions at every replica with
/// adversarial delivery (deliver all PREPAREs before any PREPAREOK).
#[test]
fn prepares_before_acks_schedule() {
    let mut s = cluster(3, &[10_000, 20_000, 30_000], None);
    for (i, seq) in [(0usize, 1u64), (1, 2), (2, 3)] {
        submit(&mut s, i, seq);
    }
    // Deliver only PREPAREs first: acks queue up behind the waits.
    for from in 0..3 {
        for to in 0..3 {
            s.deliver(from, to);
        }
    }
    s.drain();
    let a = committed_ids(&s, 0);
    assert_eq!(a.len(), 3);
    assert_eq!(committed_ids(&s, 1), a);
    assert_eq!(committed_ids(&s, 2), a);
}
