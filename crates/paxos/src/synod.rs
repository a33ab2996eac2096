//! Single-decree Paxos ("synod") consensus.
//!
//! The Clock-RSM reconfiguration protocol (Algorithm 3 of the paper) is
//! built on consensus primitives `PROPOSE(k, m_p)` / `DECIDE(k, m_d)`:
//! "in practice one can use a protocol like Paxos to implement the
//! primitives". This module provides exactly that — a self-contained,
//! transport-agnostic single-decree Paxos instance that the embedding
//! protocol drives by relaying its messages.
//!
//! Each [`SynodInstance`] combines the acceptor role (always active) with
//! an optional proposer role (activated by [`propose`]). Competing
//! proposers are resolved by ballots; liveness under contention is restored
//! by the embedder calling [`on_retry`] on a timeout, which re-proposes
//! with a higher ballot.
//!
//! [`propose`]: SynodInstance::propose
//! [`on_retry`]: SynodInstance::on_retry

use std::collections::HashSet;
use std::fmt;

use rsm_core::id::ReplicaId;

rsm_core::wire_table! {
    /// A Paxos ballot: a round number with the proposing replica's id as the
    /// tie-breaker, totally ordered.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Ballot {
        /// Retry round, dominant in the ordering.
        pub round: u64,
        /// Proposer id, breaking ties between concurrent rounds.
        pub proposer: ReplicaId,
    }
}

impl Ballot {
    /// The null ballot, smaller than any real proposal ballot.
    pub const NULL: Ballot = Ballot {
        round: 0,
        proposer: ReplicaId::new(0),
    };
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.proposer)
    }
}

rsm_core::wire_table! {
    /// Messages of one synod instance. The embedding protocol wraps these in
    /// its own message type and relays them.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum SynodMsg<V> {
        /// Phase 1a: leader solicitation for `ballot`.
        0 => Prepare {
            /// The soliciting ballot.
            ballot: Ballot,
        },
        /// Phase 1b: promise not to accept ballots below `ballot`; reports the
        /// highest value accepted so far, if any.
        1 => Promise {
            /// The promised ballot (echo of the 1a ballot).
            ballot: Ballot,
            /// Highest accepted (ballot, value), if any.
            accepted: Option<(Ballot, V)>,
        },
        /// Phase 2a: proposal of `value` at `ballot`.
        2 => Propose {
            /// The proposing ballot.
            ballot: Ballot,
            /// The proposed value.
            value: V,
        },
        /// Phase 2b: acceptance of `ballot`.
        3 => Accept {
            /// The accepted ballot.
            ballot: Ballot,
        },
        /// A rejection hint carrying the acceptor's current promise, prompting
        /// the proposer to retry with a higher round.
        4 => Nack {
            /// The ballot being rejected.
            ballot: Ballot,
            /// The acceptor's current promised ballot.
            promised: Ballot,
        },
        /// The decided value, broadcast by the successful proposer.
        5 => Decided {
            /// The chosen value.
            value: V,
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProposerPhase {
    Idle,
    Phase1,
    Phase2,
    Done,
}

/// One single-decree Paxos instance at one replica: always an acceptor,
/// optionally a proposer.
///
/// The instance is transport-agnostic: every operation appends
/// `(destination, message)` pairs to the caller-supplied outbox.
///
/// # Examples
///
/// Running a full three-replica decision in-process:
///
/// ```
/// use paxos::{SynodInstance, SynodMsg};
/// use rsm_core::ReplicaId;
///
/// let spec: Vec<ReplicaId> = (0..3).map(ReplicaId::new).collect();
/// let mut nodes: Vec<SynodInstance<u32>> = spec
///     .iter()
///     .map(|&r| SynodInstance::new(r, spec.clone()))
///     .collect();
/// let mut outbox = Vec::new();
/// nodes[0].propose(42, &mut outbox);
/// // Relay messages until quiescent.
/// while let Some((from, to, m)) = outbox.pop().map(|(to, m)| (ReplicaId::new(0), to, m)) {
///     let mut out2 = Vec::new();
///     nodes[to.index()].on_message(from, m, &mut out2);
///     // (a real embedder routes out2 as well; see the unit tests)
///     # let _ = out2;
/// }
/// ```
#[derive(Debug)]
pub struct SynodInstance<V> {
    id: ReplicaId,
    spec: Vec<ReplicaId>,
    // Acceptor state.
    promised: Ballot,
    accepted: Option<(Ballot, V)>,
    // Proposer state.
    phase: ProposerPhase,
    my_value: Option<V>,
    /// The value of our phase 2 at `ballot`, which its majority
    /// chooses, whatever our own acceptor has accepted since.
    proposed: Option<V>,
    ballot: Ballot,
    promises: Vec<(ReplicaId, Option<(Ballot, V)>)>,
    accepts: HashSet<ReplicaId>,
    max_round_seen: u64,
    /// Whether our round heard anything since it started or since the
    /// last retry: a reply to its ballot, or a higher ballot. Either round
    /// is live (ours, or the one that outbid us), so the next retry sits
    /// out instead of preempting it.
    heard: bool,
    decided: Option<V>,
}

impl<V: Clone + fmt::Debug> SynodInstance<V> {
    /// Creates an instance for replica `id` over the replicas in `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `spec`.
    pub fn new(id: ReplicaId, spec: Vec<ReplicaId>) -> Self {
        assert!(spec.contains(&id), "replica {id} not in spec");
        SynodInstance {
            id,
            spec,
            promised: Ballot::NULL,
            accepted: None,
            phase: ProposerPhase::Idle,
            my_value: None,
            proposed: None,
            ballot: Ballot::NULL,
            promises: Vec::new(),
            accepts: HashSet::new(),
            max_round_seen: 0,
            heard: false,
            decided: None,
        }
    }

    fn majority(&self) -> usize {
        self.spec.len() / 2 + 1
    }

    /// Starts proposing `value`. The embedder should also arm a retry timer
    /// and call [`on_retry`](SynodInstance::on_retry) if no decision arrives.
    pub fn propose(&mut self, value: V, out: &mut Vec<(ReplicaId, SynodMsg<V>)>) {
        if self.decided.is_some() {
            return;
        }
        self.my_value = Some(value);
        self.start_round(out);
    }

    /// Re-proposes with a higher ballot; call on timeout while undecided.
    /// A proposer whose round heard a reply, or was outbid, since the last
    /// call skips this one, so competing proposers stop preempting each
    /// other; it retries at the next call if nothing newer arrived, so a
    /// crashed winner is still replaced.
    pub fn on_retry(&mut self, out: &mut Vec<(ReplicaId, SynodMsg<V>)>) {
        let heard = std::mem::take(&mut self.heard);
        if self.decided.is_some() || self.my_value.is_none() || heard {
            return;
        }
        self.start_round(out);
    }

    fn saw(&mut self, ballot: Ballot) {
        self.max_round_seen = self.max_round_seen.max(ballot.round);
        self.heard |= ballot > self.ballot;
    }

    fn start_round(&mut self, out: &mut Vec<(ReplicaId, SynodMsg<V>)>) {
        self.max_round_seen += 1;
        self.ballot = Ballot {
            round: self.max_round_seen,
            proposer: self.id,
        };
        self.phase = ProposerPhase::Phase1;
        self.heard = false;
        self.promises.clear();
        self.accepts.clear();
        for &r in &self.spec {
            out.push((
                r,
                SynodMsg::Prepare {
                    ballot: self.ballot,
                },
            ));
        }
    }

    /// Processes a synod message from `from`; returns `Some(value)` the
    /// first time this replica learns the decision.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: SynodMsg<V>,
        out: &mut Vec<(ReplicaId, SynodMsg<V>)>,
    ) -> Option<V> {
        match msg {
            SynodMsg::Prepare { ballot } => {
                self.saw(ballot);
                if ballot > self.promised {
                    self.promised = ballot;
                    out.push((
                        from,
                        SynodMsg::Promise {
                            ballot,
                            accepted: self.accepted.clone(),
                        },
                    ));
                } else {
                    out.push((
                        from,
                        SynodMsg::Nack {
                            ballot,
                            promised: self.promised,
                        },
                    ));
                }
                None
            }
            SynodMsg::Promise { ballot, accepted } => {
                if self.phase != ProposerPhase::Phase1 || ballot != self.ballot {
                    return None;
                }
                self.heard = true;
                if self.promises.iter().all(|(r, _)| *r != from) {
                    self.promises.push((from, accepted));
                }
                if self.promises.len() >= self.majority() {
                    // Choose the highest-ballot accepted value, else ours.
                    let inherited = self
                        .promises
                        .iter()
                        .filter_map(|(_, a)| a.clone())
                        .max_by_key(|(b, _)| *b)
                        .map(|(_, v)| v);
                    let value = inherited
                        .unwrap_or_else(|| self.my_value.clone().expect("proposer has a value"));
                    self.phase = ProposerPhase::Phase2;
                    self.accepts.clear();
                    for &r in &self.spec {
                        out.push((
                            r,
                            SynodMsg::Propose {
                                ballot: self.ballot,
                                value: value.clone(),
                            },
                        ));
                    }
                    self.proposed = Some(value);
                }
                None
            }
            SynodMsg::Propose { ballot, value } => {
                self.saw(ballot);
                if ballot >= self.promised {
                    self.promised = ballot;
                    self.accepted = Some((ballot, value));
                    out.push((from, SynodMsg::Accept { ballot }));
                } else {
                    out.push((
                        from,
                        SynodMsg::Nack {
                            ballot,
                            promised: self.promised,
                        },
                    ));
                }
                None
            }
            SynodMsg::Accept { ballot } => {
                if self.phase != ProposerPhase::Phase2 || ballot != self.ballot {
                    return None;
                }
                self.heard = true;
                self.accepts.insert(from);
                if self.accepts.len() >= self.majority() {
                    self.phase = ProposerPhase::Done;
                    let value = self.proposed.clone().expect("phase 2 has a value");
                    for &r in &self.spec {
                        out.push((
                            r,
                            SynodMsg::Decided {
                                value: value.clone(),
                            },
                        ));
                    }
                    // The decision also applies locally (the broadcast loops
                    // back through the embedder's self-delivery, but return
                    // the decision immediately for responsiveness).
                    if self.decided.is_none() {
                        self.decided = Some(value.clone());
                        return Some(value);
                    }
                }
                None
            }
            SynodMsg::Nack { promised, .. } => {
                // A higher ballot exists: remember it so a retry outbids it.
                self.saw(promised);
                None
            }
            SynodMsg::Decided { value } => {
                if self.decided.is_none() {
                    self.decided = Some(value.clone());
                    self.phase = ProposerPhase::Done;
                    Some(value)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn spec(n: u16) -> Vec<ReplicaId> {
        (0..n).map(ReplicaId::new).collect()
    }

    /// Delivers all in-flight messages until quiescence; returns decisions
    /// in the order replicas learned them.
    fn pump(
        nodes: &mut [SynodInstance<u32>],
        inflight: &mut VecDeque<(ReplicaId, ReplicaId, SynodMsg<u32>)>,
        drop_to: &[ReplicaId],
    ) -> Vec<(ReplicaId, u32)> {
        let mut decisions = Vec::new();
        while let Some((from, to, msg)) = inflight.pop_front() {
            if drop_to.contains(&to) {
                continue;
            }
            let mut out = Vec::new();
            if let Some(v) = nodes[to.index()].on_message(from, msg, &mut out) {
                decisions.push((to, v));
            }
            for (dest, m) in out {
                inflight.push_back((to, dest, m));
            }
        }
        decisions
    }

    fn start(
        nodes: &mut [SynodInstance<u32>],
        proposer: usize,
        value: u32,
        inflight: &mut VecDeque<(ReplicaId, ReplicaId, SynodMsg<u32>)>,
    ) {
        let mut out = Vec::new();
        nodes[proposer].propose(value, &mut out);
        for (dest, m) in out {
            inflight.push_back((ReplicaId::new(proposer as u16), dest, m));
        }
    }

    #[test]
    fn single_proposer_decides_its_value() {
        let s = spec(3);
        let mut nodes: Vec<_> = s
            .iter()
            .map(|&r| SynodInstance::new(r, s.clone()))
            .collect();
        let mut inflight = VecDeque::new();
        start(&mut nodes, 0, 7, &mut inflight);
        let decisions = pump(&mut nodes, &mut inflight, &[]);
        assert!(decisions.iter().all(|(_, v)| *v == 7));
        for n in &nodes {
            assert_eq!(n.decided.as_ref(), Some(&7));
        }
    }

    #[test]
    fn competing_proposers_agree_on_one_value() {
        let s = spec(5);
        let mut nodes: Vec<_> = s
            .iter()
            .map(|&r| SynodInstance::new(r, s.clone()))
            .collect();
        let mut inflight = VecDeque::new();
        start(&mut nodes, 0, 100, &mut inflight);
        start(&mut nodes, 4, 200, &mut inflight);
        // Interleave deliveries; retries resolve contention.
        for _ in 0..20 {
            pump(&mut nodes, &mut inflight, &[]);
            if nodes.iter().all(|n| n.decided.as_ref().is_some()) {
                break;
            }
            for i in [0usize, 4] {
                let mut out = Vec::new();
                nodes[i].on_retry(&mut out);
                for (dest, m) in out {
                    inflight.push_back((ReplicaId::new(i as u16), dest, m));
                }
            }
        }
        let decided: Vec<u32> = nodes
            .iter()
            .filter_map(|n| n.decided.as_ref().copied())
            .collect();
        assert_eq!(decided.len(), 5, "all replicas must decide");
        assert!(decided.windows(2).all(|w| w[0] == w[1]), "{decided:?}");
        assert!(decided[0] == 100 || decided[0] == 200);
    }

    #[test]
    fn decision_survives_minority_unreachable() {
        let s = spec(5);
        let mut nodes: Vec<_> = s
            .iter()
            .map(|&r| SynodInstance::new(r, s.clone()))
            .collect();
        let mut inflight = VecDeque::new();
        let dead = [ReplicaId::new(3), ReplicaId::new(4)];
        start(&mut nodes, 0, 9, &mut inflight);
        let decisions = pump(&mut nodes, &mut inflight, &dead);
        assert!(!decisions.is_empty());
        assert!(decisions.iter().all(|(_, v)| *v == 9));
        assert_eq!(nodes[0].decided.as_ref(), Some(&9));
        assert_eq!(nodes[3].decided.as_ref(), None);
    }

    #[test]
    fn second_proposer_inherits_chosen_value() {
        // r0 decides with {r0, r1, r2}; r4 proposes later and must learn 11
        // rather than imposing 55.
        let s = spec(5);
        let mut nodes: Vec<_> = s
            .iter()
            .map(|&r| SynodInstance::new(r, s.clone()))
            .collect();
        let mut inflight = VecDeque::new();
        let dead = [ReplicaId::new(3), ReplicaId::new(4)];
        start(&mut nodes, 0, 11, &mut inflight);
        pump(&mut nodes, &mut inflight, &dead);
        assert_eq!(nodes[0].decided.as_ref(), Some(&11));
        // Now r4 (which saw nothing) proposes 55 reaching everyone.
        start(&mut nodes, 4, 55, &mut inflight);
        for _ in 0..10 {
            pump(&mut nodes, &mut inflight, &[]);
            if nodes[4].decided.as_ref().is_some() {
                break;
            }
            let mut out = Vec::new();
            nodes[4].on_retry(&mut out);
            for (dest, m) in out {
                inflight.push_back((ReplicaId::new(4), dest, m));
            }
        }
        assert_eq!(nodes[4].decided.as_ref(), Some(&11), "agreement violated");
    }

    /// A proposer's own acceptor promises a higher ballot before the
    /// proposer's PROPOSE loops back to it, then the other two accept:
    /// the proposer decides the value it proposed — the one its phase-2
    /// majority chose — not its original value.
    #[test]
    fn proposer_decides_its_phase_2_value_after_its_acceptor_moves_on() {
        let s = spec(3);
        let mut nodes: Vec<_> = s
            .iter()
            .map(|&r| SynodInstance::new(r, s.clone()))
            .collect();
        let r = ReplicaId::new;
        let b = |round, p| Ballot {
            round,
            proposer: r(p),
        };
        let deliver = |nodes: &mut [SynodInstance<u32>], from, to: u16, msg| {
            let mut out = Vec::new();
            let decided = nodes[to as usize].on_message(r(from), msg, &mut out);
            (decided, out)
        };
        // r2 accepts (b1.r1, 5); r0 hears b1.r1 and so proposes at b2.r0.
        deliver(
            &mut nodes,
            1,
            2,
            SynodMsg::Propose {
                ballot: b(1, 1),
                value: 5,
            },
        );
        deliver(&mut nodes, 1, 0, SynodMsg::Prepare { ballot: b(1, 1) });
        let mut out = Vec::new();
        nodes[0].propose(7, &mut out);
        // r0 and r2 promise b2.r0; r2 reports (b1.r1, 5), which r0 inherits.
        for to in [0, 2] {
            let (_, promise) = deliver(&mut nodes, 0, to, SynodMsg::Prepare { ballot: b(2, 0) });
            let (_, proposes) = deliver(&mut nodes, to, 0, promise[0].1.clone());
            out = proposes;
        }
        assert_eq!(out.len(), 3, "phase 2 starts");
        assert!(out.iter().all(|(_, m)| *m
            == SynodMsg::Propose {
                ballot: b(2, 0),
                value: 5
            }));
        // r0's acceptor promises b3.r1, then refuses r0's own PROPOSE.
        deliver(&mut nodes, 1, 0, SynodMsg::Prepare { ballot: b(3, 1) });
        let (_, nack) = deliver(&mut nodes, 0, 0, out[0].1.clone());
        assert!(matches!(nack[0].1, SynodMsg::Nack { .. }));
        // r1 and r2 accept (b2.r0, 5): a majority chose 5.
        let mut decided = None;
        for to in [1, 2] {
            let (_, accept) = deliver(&mut nodes, 0, to, out[to as usize].1.clone());
            let (d, _) = deliver(&mut nodes, to, 0, accept[0].1.clone());
            decided = decided.or(d);
        }
        assert_eq!(decided, Some(5), "r0 must decide the chosen value");
        assert_eq!(nodes[0].decided.as_ref(), Some(&5));
    }

    #[test]
    fn ballots_order_by_round_then_proposer() {
        let a = Ballot {
            round: 1,
            proposer: ReplicaId::new(2),
        };
        let b = Ballot {
            round: 2,
            proposer: ReplicaId::new(0),
        };
        assert!(a < b);
        assert!(Ballot::NULL < a);
        assert_eq!(a.to_string(), "b1.r2");
    }

    /// A proposer whose round heard a reply, or a higher ballot, sits the
    /// next retry out, and retries at the one after if nothing newer
    /// arrived: the live round gets its turn, and a crashed winner is
    /// still replaced.
    #[test]
    fn a_round_that_heard_something_skips_one_retry() {
        let mut n = SynodInstance::new(ReplicaId::new(0), spec(3));
        n.propose(1, &mut Vec::new());
        // Retries until one starts a round; returns how many sat out.
        let retry = |n: &mut SynodInstance<u32>| {
            let before = n.ballot;
            let skipped = (0..3).take_while(|_| {
                n.on_retry(&mut Vec::new());
                n.ballot == before
            });
            skipped.count()
        };
        let promise = SynodMsg::Promise {
            ballot: n.ballot,
            accepted: None,
        };
        n.on_message(ReplicaId::new(1), promise, &mut Vec::new());
        assert_eq!(retry(&mut n), 1, "a reply to our round");
        let higher = Ballot {
            round: n.ballot.round + 1,
            proposer: ReplicaId::new(2),
        };
        n.on_message(
            ReplicaId::new(2),
            SynodMsg::Prepare { ballot: higher },
            &mut Vec::new(),
        );
        assert_eq!(retry(&mut n), 1, "a higher ballot");
        assert!(n.ballot > higher, "the retry outbids it");
        let nack = SynodMsg::Nack {
            ballot: n.ballot,
            promised: Ballot {
                round: n.ballot.round + 1,
                proposer: ReplicaId::new(1),
            },
        };
        n.on_message(ReplicaId::new(1), nack, &mut Vec::new());
        assert_eq!(retry(&mut n), 1, "a refusal naming a higher promise");
        assert_eq!(retry(&mut n), 0, "a quiet round retries at once");
    }

    /// Under random delivery orders, message drops, competing proposers
    /// and retries, at most one value is ever decided (consensus safety),
    /// and with a live majority a decision is reached (liveness given
    /// retries).
    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        type Msg = (ReplicaId, ReplicaId, SynodMsg<u32>); // (from, to, payload)

        struct Net {
            nodes: Vec<SynodInstance<u32>>,
            inflight: Vec<Msg>,
            decided: Vec<Option<u32>>,
        }

        impl Net {
            fn new(n: u16) -> Self {
                let spec: Vec<ReplicaId> = (0..n).map(ReplicaId::new).collect();
                Net {
                    nodes: spec
                        .iter()
                        .map(|&r| SynodInstance::new(r, spec.clone()))
                        .collect(),
                    inflight: Vec::new(),
                    decided: vec![None; n as usize],
                }
            }

            fn propose(&mut self, at: usize, value: u32) {
                let mut out = Vec::new();
                self.nodes[at].propose(value, &mut out);
                let from = ReplicaId::new(at as u16);
                self.inflight
                    .extend(out.into_iter().map(|(to, m)| (from, to, m)));
            }

            fn retry(&mut self, at: usize) {
                let mut out = Vec::new();
                self.nodes[at].on_retry(&mut out);
                let from = ReplicaId::new(at as u16);
                self.inflight
                    .extend(out.into_iter().map(|(to, m)| (from, to, m)));
            }

            /// Delivers (or drops) the in-flight message at `idx % len`.
            fn step(&mut self, idx: usize, drop: bool) {
                if self.inflight.is_empty() {
                    return;
                }
                let (from, to, msg) = self.inflight.swap_remove(idx % self.inflight.len());
                if drop {
                    return;
                }
                let mut out = Vec::new();
                if let Some(v) = self.nodes[to.index()].on_message(from, msg, &mut out) {
                    self.decided[to.index()] = Some(v);
                }
                self.inflight
                    .extend(out.into_iter().map(|(t, m)| (to, t, m)));
            }

            /// Delivers everything currently in flight, no drops.
            fn drain(&mut self) {
                while !self.inflight.is_empty() {
                    self.step(0, false);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Safety: no two replicas ever decide different values, whatever the
            /// delivery order, drop pattern, proposer set, or retry schedule.
            #[test]
            fn at_most_one_value_decided(
                n in prop_oneof![Just(3u16), Just(5u16)],
                proposals in proptest::collection::vec((0usize..5, 1u32..100), 1..4),
                schedule in proptest::collection::vec((any::<usize>(), 0u8..10), 0..300),
                retries in proptest::collection::vec(0usize..5, 0..5),
            ) {
                let mut net = Net::new(n);
                for (at, v) in &proposals {
                    net.propose(at % n as usize, *v);
                }
                let mut retries = retries.into_iter();
                for (idx, kind) in schedule {
                    // ~20% drops, occasional retries interleaved.
                    net.step(idx, kind < 2);
                    if kind == 9 {
                        if let Some(r) = retries.next() {
                            net.retry(r % n as usize);
                        }
                    }
                }
                // Whatever happened: all decided values (including acceptor state
                // learned later) must agree.
                let decided: Vec<u32> = net
                    .nodes
                    .iter()
                    .filter_map(|node| node.decided.as_ref().copied())
                    .collect();
                prop_assert!(
                    decided.windows(2).all(|w| w[0] == w[1]),
                    "conflicting decisions: {decided:?}"
                );
                // And every decided value was actually proposed.
                if let Some(&v) = decided.first() {
                    prop_assert!(proposals.iter().any(|(_, p)| *p == v));
                }
            }

            /// Liveness: with no drops and a retry pass, a single proposer always
            /// gets its value decided everywhere.
            #[test]
            fn lone_proposer_always_decides(
                n in prop_oneof![Just(3u16), Just(5u16)],
                at in 0usize..5,
                value in 1u32..1000,
            ) {
                let mut net = Net::new(n);
                let at = at % n as usize;
                net.propose(at, value);
                net.drain();
                for node in &net.nodes {
                    prop_assert_eq!(node.decided.as_ref(), Some(&value));
                }
            }

            /// Convergence after partial chaos: random drops during the run, then
            /// retries plus a clean drain must still reach agreement on one of
            /// the proposed values at every node.
            #[test]
            fn retries_recover_from_drops(
                drops in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..80),
                v1 in 1u32..50,
                v2 in 50u32..100,
            ) {
                let mut net = Net::new(5);
                net.propose(0, v1);
                net.propose(4, v2);
                for (idx, drop) in drops {
                    net.step(idx, drop);
                }
                // Recovery phase: every node still undecided proposes (an
                // undecided node can always propose; consensus safety makes it
                // *inherit* the chosen value rather than impose its own) and
                // everything drains without drops. The bare synod has no
                // anti-entropy — in the Clock-RSM embedding the decision catch-up
                // messages play that role.
                for _ in 0..20 {
                    if net.nodes.iter().all(|n| n.decided.as_ref().is_some()) {
                        break;
                    }
                    for i in 0..5 {
                        if net.nodes[i].decided.as_ref().is_none() {
                            if matches!(net.nodes[i].phase, ProposerPhase::Phase1 | ProposerPhase::Phase2) {
                                net.retry(i);
                            } else {
                                net.propose(i, v1);
                            }
                        }
                    }
                    net.drain();
                }
                let decided: Vec<u32> = net.nodes.iter().filter_map(|n| n.decided.as_ref().copied()).collect();
                prop_assert_eq!(decided.len(), 5, "liveness: everyone decides");
                prop_assert!(decided.windows(2).all(|w| w[0] == w[1]), "{decided:?}");
                prop_assert!(decided[0] == v1 || decided[0] == v2);
            }
        }
    }
}
