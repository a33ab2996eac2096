//! Multi-Paxos wire messages.
//!
//! The leader funnel is where batching pays in Paxos (the paper explains
//! its small-command throughput advantage exactly this way), so every
//! data-plane message is batch-shaped: commands travel in ordered
//! [`Batch`]es bound to contiguous instance runs, and acknowledgements
//! and commit notifications are **cumulative watermarks** over the
//! instance space rather than per-instance messages.
//!
//! Every data-plane message is tagged with the [`Ballot`] of the leader
//! regime that produced it. With fail-over disabled this is always the
//! initial ballot; with fail-over enabled the ballot is what fences a
//! deposed leader — acceptors [`Nack`](PaxosMsg::Nack) anything below
//! their promise — and the control plane
//! ([`Prepare`](PaxosMsg::Prepare) / [`Promise`](PaxosMsg::Promise) /
//! [`Repair`](PaxosMsg::Repair)) is classic Paxos phase 1 lifted from the
//! single decree to the instance-log suffix.

use rsm_core::batch::Batch;
use rsm_core::checkpoint::{CatchUp, CatchUpReply};
use rsm_core::command::Command;
use rsm_core::id::ReplicaId;
use rsm_core::read::{ReadReply, ReadRequest};
use rsm_core::wire::WireMsg;

use crate::synod::Ballot;

rsm_core::wire_table! {
    /// One instance of the log suffix, as reported by an acceptor in a
    /// [`Promise`](PaxosMsg::Promise) or re-proposed by a new leader in a
    /// [`Repair`](PaxosMsg::Repair).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SuffixEntry {
        /// The instance number.
        pub instance: u64,
        /// In a `Promise`: the ballot at which the value was accepted. In a
        /// `Repair`: the new leader's ballot (every repaired instance is
        /// re-proposed at it).
        pub ballot: Ballot,
        /// The command bound to the instance and its originating replica, or
        /// `None` for a **no-op filler**: a hole the new leader proved
        /// unchosen and closes so execution can pass it.
        pub value: Option<(Command, ReplicaId)>,
    }
}

rsm_core::wire_table! {
    /// Messages exchanged by [`MultiPaxos`](crate::MultiPaxos) replicas.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PaxosMsg {
        /// A follower forwards a batch of its clients' commands to the
        /// leader, remembering itself as the commands' origin so replies
        /// return to the right data center.
        0 => Forward {
            /// The client commands, in submission order.
            cmds: Batch,
            /// The replica whose clients issued the commands.
            origin: ReplicaId,
        },
        /// Phase 2a: the leader asks replicas to accept the batch in the
        /// contiguous instance run `[first_instance, first_instance +
        /// cmds.len())`, at its regime ballot.
        1 => Accept {
            /// The proposing leader's regime ballot.
            ballot: Ballot,
            /// First instance of the run (consecutive numbers follow).
            first_instance: u64,
            /// The commands bound to the run, in instance order.
            cmds: Batch,
            /// The replica whose clients issued the commands.
            origin: ReplicaId,
        },
        /// Phase 2b, cumulative: the sender vouches, **for the tagged
        /// regime**, that every instance below `up_to` is logged at its site.
        /// Sound because the leader assigns consecutive instances and
        /// channels are FIFO, so accepts arrive gap-free; tagging with the
        /// regime ballot is what keeps a quorum honest across fail-overs
        /// (watermarks earned under a deposed leader are never counted
        /// toward the new regime's commits). Sent to the leader (plain
        /// Paxos) or broadcast (Paxos-bcast); one ack covers a whole batch.
        2 => Accepted {
            /// The regime the vouch is for.
            ballot: Ballot,
            /// Exclusive watermark: all instances `< up_to` are logged.
            up_to: u64,
        },
        /// Commit notification from the leader (plain Paxos only),
        /// cumulative: every instance below `up_to` is committed. Commitment
        /// is final regardless of the announcing regime, so receivers honour
        /// the watermark even from a since-deposed leader (it only announces
        /// quorums it really observed).
        3 => Commit {
            /// The announcing leader's regime ballot.
            ballot: Ballot,
            /// Exclusive watermark: all instances `< up_to` are committed.
            up_to: u64,
        },
        /// Lease renewal from an idle leader: proves the regime is alive and
        /// carries the commit watermark so followers keep executing without
        /// data-plane traffic. Fenced like an `Accept` — a deposed leader's
        /// heartbeat draws a [`Nack`](PaxosMsg::Nack), which is how it learns
        /// it was deposed.
        4 => Heartbeat {
            /// The sending leader's regime ballot.
            ballot: Ballot,
            /// Exclusive watermark: all instances `< committed` are committed.
            committed: u64,
        },
        /// Phase 1a over the log suffix: a candidate whose leader lease
        /// expired solicits leadership at `ballot` and asks each acceptor for
        /// everything it has accepted from `from_instance` up.
        5 => Prepare {
            /// The candidate's ballot.
            ballot: Ballot,
            /// The candidate's committed watermark: report instances at or
            /// above this.
            from_instance: u64,
        },
        /// Phase 1b: the acceptor promises to reject anything below `ballot`
        /// and reports its accepted log suffix so the candidate can adopt
        /// the highest-ballot value per instance.
        6 => Promise {
            /// The promised ballot (echo of the 1a ballot).
            ballot: Ballot,
            /// Echo of the solicited suffix start.
            from_instance: u64,
            /// The acceptor's committed watermark (everything below is
            /// globally decided and needs no repair).
            committed: u64,
            /// Accepted instances at or above `from_instance`, with the
            /// ballots they were accepted at.
            entries: Vec<SuffixEntry>,
        },
        /// A rejection carrying the acceptor's current promise: tells a
        /// stale-ballot sender (deposed leader or outbid candidate) which
        /// ballot it must outbid — or defer to.
        7 => Nack {
            /// The acceptor's promised ballot.
            promised: Ballot,
        },
        /// Phase 2a for the election outcome: the new leader re-proposes the
        /// merged log suffix `[floor, floor + entries.len())` at its ballot —
        /// highest-ballot accepted values kept, unchosen holes closed with
        /// no-ops — and thereby announces its regime. Processing a `Repair`
        /// is what switches an acceptor to the new regime; FIFO channels
        /// guarantee it precedes the regime's `Accept` traffic.
        8 => Repair {
            /// The new leader's ballot.
            ballot: Ballot,
            /// Start of the repaired range: the highest committed watermark
            /// among the promise quorum. Everything below it is final, and
            /// the receiver may adopt it as its own committed watermark.
            floor: u64,
            /// The re-proposed suffix, one entry per instance, contiguous
            /// from `floor`.
            entries: Vec<SuffixEntry>,
        },
        /// A replica that came back with a hole asks one peer for `[from,
        /// below)` (the shared catch-up exchange, `rsm_core::checkpoint`).
        /// A follower that sees an accept run land *past* its vouch
        /// watermark (a gap — per-link FIFO means the missing accepts were
        /// lost while it was down, or while the leader lacked a majority to
        /// commit them) asks the regime leader. Without this, instances
        /// proposed while the leader was in a minority could never commit:
        /// the survivors' cumulative acks can never soundly cross the hole,
        /// and nothing else retransmits uncommitted proposals. A replica
        /// stalled at a committed hole asks the next peer of a rotation.
        9 => CatchUp(CatchUp<u64>),
        /// The answer to a [`CatchUp`](PaxosMsg::CatchUp), with the sender's
        /// promised ballot. `Runs`: the regime leader's retransmission of
        /// still-pending instances from its slot table, re-asserted at its
        /// ballot (the `promised` it carries) — unlike
        /// [`Repair`](PaxosMsg::Repair) it carries no floor and drops
        /// nothing at the receiver, it is a plain re-`Accept` of an explicit
        /// instance set. `Snapshot`: the sender's state through every
        /// instance below the carried (exclusive) watermark; the requester
        /// installs it and resumes execution and acknowledgements from the
        /// watermark, and adopts `promised` first so it can never regress
        /// its own promise below a regime the cluster has already moved to
        /// (the compacted log it writes after the install re-pins the
        /// promise durably).
        10 => CatchUpReply {
            /// The sender's promised ballot.
            promised: Ballot,
            /// The runs or the snapshot.
            reply: CatchUpReply<u64, Vec<SuffixEntry>>,
        },
        /// Pre-vote probe (opt-in, [`pre_vote`]): before bumping its ballot, a
        /// would-be candidate asks whether the receiver would *currently*
        /// promise `ballot`. The receiver answers from the same tests a real
        /// [`Prepare`](PaxosMsg::Prepare) faces — promise ordering and the
        /// leader-stickiness lease gate — but **nothing mutates**: no promise
        /// moves, no lease renews, no round is burned. A replica flapping
        /// behind a partition therefore cannot drive real ballots up (and
        /// depose a healthy leader on heal); it only ever probes, and its
        /// probes die quietly while a majority still hears the leader.
        ///
        /// [`pre_vote`]: rsm_core::lease::LeaseConfig::pre_vote
        15 => PreVote {
            /// The ballot the sender would campaign at.
            ballot: Ballot,
        },
        /// Affirmative answer to a [`PreVote`](PaxosMsg::PreVote): the sender
        /// would promise `ballot` if asked now. A majority of grants licenses
        /// the real election. There is no negative counterpart — refusals are
        /// silent, exactly like the stickiness gate's silence on `Prepare`
        /// (except a probe below the receiver's promise, which draws the
        /// usual [`Nack`](PaxosMsg::Nack) so a lagging candidate can learn
        /// the round to beat).
        16 => PreVoteGrant {
            /// Echo of the probed ballot.
            ballot: Ballot,
        },
        /// Quorum-read probe (`rsm_core::read`): a replica that cannot serve
        /// a read locally — a follower, or a leader whose read lease is
        /// uncertain — asks a peer for its read mark. Clock-free: safety
        /// comes from quorum intersection, not from any lease.
        13 => ReadProbe(ReadRequest),
        /// Answer to a [`ReadProbe`](PaxosMsg::ReadProbe): the responder's
        /// read mark (its commit watermark raised to the top of its
        /// accepted log). Deliberately **not** ballot-tagged and never
        /// counted as leader-lease evidence: answering a probe does not
        /// imply the responder recently heard the leader, so counting it
        /// would let a near-deposed replica's answer extend the read lease
        /// past an election it is about to enable. Only messages whose
        /// *send* implies current-regime leader contact (an
        /// [`Accepted`](PaxosMsg::Accepted)) feed the lease.
        14 => ReadMark(ReadReply),
    }
}

impl WireMsg for PaxosMsg {
    /// The broadcast-heavy variants — an [`Accept`](PaxosMsg::Accept) run
    /// fanned out to every acceptor, a [`Forward`](PaxosMsg::Forward)
    /// relayed unchanged — are clones sharing one `Arc`'d [`Batch`], so
    /// batch identity plus the scalar fields decides byte-identity
    /// without comparing command payloads.
    fn shares_encoding(&self, prev: &Self) -> bool {
        match (self, prev) {
            (
                PaxosMsg::Accept {
                    ballot: b1,
                    first_instance: f1,
                    cmds: c1,
                    origin: o1,
                },
                PaxosMsg::Accept {
                    ballot: b2,
                    first_instance: f2,
                    cmds: c2,
                    origin: o2,
                },
            ) => b1 == b2 && f1 == f2 && o1 == o2 && c1.ptr_eq(c2),
            (
                PaxosMsg::Forward {
                    cmds: c1,
                    origin: o1,
                },
                PaxosMsg::Forward {
                    cmds: c2,
                    origin: o2,
                },
            ) => o1 == o2 && c1.ptr_eq(c2),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rsm_core::command::{Command, CommandId};
    use rsm_core::id::ClientId;
    use rsm_core::wire::WireSize;

    fn cmd(len: usize) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), 1),
            Bytes::from(vec![0u8; len]),
        )
    }

    fn b(round: u64) -> Ballot {
        Ballot {
            round,
            proposer: ReplicaId::new(0),
        }
    }

    #[test]
    fn payload_bearing_messages_are_larger() {
        let accept = PaxosMsg::Accept {
            ballot: b(0),
            first_instance: 1,
            cmds: Batch::single(cmd(100)),
            origin: ReplicaId::new(0),
        };
        let ack = PaxosMsg::Accepted {
            ballot: b(0),
            up_to: 2,
        };
        assert!(accept.wire_size() > ack.wire_size() + 100);
    }

    #[test]
    fn batched_accept_amortizes_the_header() {
        let one = PaxosMsg::Accept {
            ballot: b(0),
            first_instance: 0,
            cmds: Batch::single(cmd(10)),
            origin: ReplicaId::new(0),
        };
        let eight = PaxosMsg::Accept {
            ballot: b(0),
            first_instance: 0,
            cmds: Batch::new((0..8).map(|_| cmd(10)).collect()),
            origin: ReplicaId::new(0),
        };
        assert!(eight.wire_size() < 8 * one.wire_size());
    }

    #[test]
    fn promise_size_scales_with_the_reported_suffix() {
        let entry = |i: u64| SuffixEntry {
            instance: i,
            ballot: b(1),
            value: Some((cmd(64), ReplicaId::new(1))),
        };
        let empty = PaxosMsg::Promise {
            ballot: b(2),
            from_instance: 0,
            committed: 0,
            entries: vec![],
        };
        let full = PaxosMsg::Promise {
            ballot: b(2),
            from_instance: 0,
            committed: 0,
            entries: (0..4).map(entry).collect(),
        };
        assert!(full.wire_size() > empty.wire_size() + 4 * 64);
        // A no-op filler costs almost nothing.
        let noop = SuffixEntry {
            instance: 9,
            ballot: b(2),
            value: None,
        };
        assert!(noop.wire_size() < entry(9).wire_size());
    }
}
