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
//! This pump explores interleavings the discrete-event simulator (which
//! ties delivery order to latencies) cannot reach.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use clock_rsm::{ClockRsm, ClockRsmConfig, LogRec, RsmMsg};
use proptest::prelude::*;
use rsm_core::batch::Batch;
use rsm_core::command::{Command, CommandId, Committed};
use rsm_core::config::Membership;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::time::{Micros, Timestamp};

/// Per-replica context: a skewed logical clock plus captured effects.
struct PumpCtx {
    clock: Micros,
    sends: Vec<(ReplicaId, RsmMsg)>,
    timers: Vec<(Micros, TimerToken)>,
    commits: Vec<Committed>,
}

impl PumpCtx {
    fn new(start_clock: Micros) -> Self {
        PumpCtx {
            clock: start_clock,
            sends: Vec::new(),
            timers: Vec::new(),
            commits: Vec::new(),
        }
    }
}

impl Context<ClockRsm> for PumpCtx {
    fn clock(&mut self) -> Micros {
        self.clock += 1;
        self.clock
    }
    fn send(&mut self, to: ReplicaId, msg: RsmMsg) {
        self.sends.push((to, msg));
    }
    fn log_append(&mut self, _rec: LogRec) {}
    fn log_rewrite(&mut self, _recs: Vec<LogRec>) {}
    fn commit(&mut self, c: Committed) -> Bytes {
        let result = c.cmd.payload.clone();
        self.commits.push(c);
        result
    }
    fn set_timer(&mut self, after: Micros, token: TimerToken) {
        self.timers.push((after, token));
    }
}

struct Pump {
    n: usize,
    replicas: Vec<ClockRsm>,
    ctxs: Vec<PumpCtx>,
    /// FIFO per (from, to) link.
    links: Vec<Vec<VecDeque<RsmMsg>>>,
}

impl Pump {
    fn new(n: usize, clock_offsets: &[Micros]) -> Self {
        Pump::with_delta(n, clock_offsets, None)
    }

    /// A pump whose replicas broadcast CLOCKTIME every `delta_us` of
    /// quiet (Algorithm 2) when their timer fires.
    fn with_delta(n: usize, clock_offsets: &[Micros], delta_us: Option<Micros>) -> Self {
        let replicas = (0..n)
            .map(|i| {
                ClockRsm::new(
                    ReplicaId::new(i as u16),
                    Membership::uniform(n as u16),
                    ClockRsmConfig::default().with_delta_us(delta_us),
                )
            })
            .collect();
        let ctxs = (0..n).map(|i| PumpCtx::new(clock_offsets[i])).collect();
        Pump {
            n,
            replicas,
            ctxs,
            links: vec![vec![VecDeque::new(); n]; n],
        }
    }

    fn flush_sends(&mut self, from: usize) {
        for (to, msg) in std::mem::take(&mut self.ctxs[from].sends) {
            self.links[from][to.index()].push_back(msg);
        }
    }

    fn submit(&mut self, at: usize, seq: u64) {
        let cmd = Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(at as u16), 0), seq),
            Bytes::from_static(b"w"),
        );
        self.replicas[at].on_client_request(cmd, &mut self.ctxs[at]);
        self.flush_sends(at);
    }

    /// Delivers the head of one link, if non-empty. Returns true on work.
    fn deliver(&mut self, from: usize, to: usize) -> bool {
        let Some(msg) = self.links[from][to].pop_front() else {
            return false;
        };
        self.replicas[to].on_message(ReplicaId::new(from as u16), msg, &mut self.ctxs[to]);
        self.flush_sends(to);
        true
    }

    /// Fires one pending timer at a replica (advancing its clock past the
    /// deadline so waited PREPAREOKs become sendable).
    fn fire_timer(&mut self, at: usize) -> bool {
        let Some((after, token)) = self.ctxs[at].timers.pop() else {
            return false;
        };
        self.ctxs[at].clock += after;
        self.replicas[at].on_timer(token, &mut self.ctxs[at]);
        self.flush_sends(at);
        true
    }

    /// Drains everything deterministically: rotate links and timers until
    /// quiescent.
    fn drain(&mut self) {
        loop {
            let mut progressed = false;
            for from in 0..self.n {
                for to in 0..self.n {
                    while self.deliver(from, to) {
                        progressed = true;
                    }
                }
            }
            for r in 0..self.n {
                while self.fire_timer(r) {
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn committed_ids(&self, r: usize) -> Vec<CommandId> {
        self.ctxs[r].commits.iter().map(|c| c.cmd.id).collect()
    }
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
            RsmMsg::ClockTime { ts, .. } | RsmMsg::ClockProbe { ts, .. } => {
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
        let mut pump = Pump::new(n, &offsets[..n]);
        let mut seq = 0u64;
        for (who, link, fire) in script {
            let who = who % n;
            // Interleave: submit, then a few random delivery attempts.
            seq += 1;
            pump.submit(who, seq);
            let (from, to) = (link % n, (link / n) % n);
            pump.deliver(from, to);
            if fire {
                pump.fire_timer(who);
            }
        }
        pump.drain();

        // Agreement: everyone executed every command.
        for r in 0..n {
            prop_assert_eq!(
                pump.ctxs[r].commits.len() as u64, seq,
                "replica {} executed {} of {} commands",
                r, pump.ctxs[r].commits.len(), seq
            );
        }
        // Total order (Claim 2): identical sequences everywhere.
        let reference = pump.committed_ids(0);
        for r in 1..n {
            prop_assert_eq!(&pump.committed_ids(r), &reference, "replica {} diverged", r);
        }
        // Timestamp order (Claim 1): order hints strictly increase.
        for r in 0..n {
            let hints: Vec<u64> = pump.ctxs[r].commits.iter().map(|c| c.order_hint).collect();
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
        let mut pump = Pump::new(3, &offsets);
        let mut seq = 0u64;
        for who in order {
            seq += 1;
            pump.submit(who, seq);
        }
        pump.drain();
        let reference = pump.committed_ids(0);
        prop_assert_eq!(reference.len() as u64, seq);
        for r in 1..3 {
            prop_assert_eq!(&pump.committed_ids(r), &reference);
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
        let mut pump = Pump::with_delta(3, &offsets, Some(40));
        let mut refs: Vec<Reference> = (0..3).map(|_| Reference::new(3)).collect();
        let mut seq = 0u64;
        let mut deliver = |pump: &mut Pump, from: usize, to: usize| {
            let Some(msg) = pump.links[from][to].front().cloned() else {
                return false;
            };
            pump.deliver(from, to);
            refs[to].observe(from, &msg);
            prop_assert_eq!(&pump.committed_ids(to), &refs[to].committed);
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
                    pump.replicas[at].on_client_batch(Batch::new(cmds.collect()), &mut pump.ctxs[at]);
                    pump.flush_sends(at);
                }
                1 => {
                    pump.fire_timer(arg % 3);
                }
                _ => {
                    deliver(&mut pump, arg % 3, arg / 3);
                }
            }
        }
        // Drain: every link in turn, then the timers, until quiet.
        loop {
            let mut progressed = false;
            for from in 0..3 {
                for to in 0..3 {
                    while deliver(&mut pump, from, to) {
                        progressed = true;
                    }
                }
            }
            for r in 0..3 {
                // A CLOCKTIME tick re-arms forever: fire only the ack waits.
                while pump.ctxs[r].timers.iter().any(|&(_, t)| t != TimerToken(1)) {
                    let i = pump.ctxs[r].timers.iter().position(|&(_, t)| t != TimerToken(1));
                    let (after, token) = pump.ctxs[r].timers.remove(i.expect("checked"));
                    pump.ctxs[r].clock += after;
                    pump.replicas[r].on_timer(token, &mut pump.ctxs[r]);
                    pump.flush_sends(r);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        prop_assert_eq!(pump.committed_ids(0).len() as u64, refs[0].committed.len() as u64);
    }
}

/// Deterministic regression: concurrent submissions at every replica with
/// adversarial delivery (deliver all PREPAREs before any PREPAREOK).
#[test]
fn prepares_before_acks_schedule() {
    let mut pump = Pump::new(3, &[10_000, 20_000, 30_000]);
    for (i, seq) in [(0usize, 1u64), (1, 2), (2, 3)] {
        pump.submit(i, seq);
    }
    // Deliver only PREPAREs first: acks queue up behind the waits.
    for from in 0..3 {
        for to in 0..3 {
            pump.deliver(from, to);
        }
    }
    pump.drain();
    let a = pump.committed_ids(0);
    assert_eq!(a.len(), 3);
    assert_eq!(pump.committed_ids(1), a);
    assert_eq!(pump.committed_ids(2), a);
}
