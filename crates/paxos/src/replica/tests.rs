use super::*;
use crate::msg::SuffixEntry;
use bytes::Bytes;
use rsm_core::command::CommandId;
use rsm_core::id::ClientId;
use rsm_core::node::{ApplyOnly, Script};
use rsm_core::read::ReadRequest;

/// Replica `i` of a three-replica Paxos-bcast deployment led by r0.
fn bcast(i: u16) -> MultiPaxos {
    MultiPaxos::new(r(i), Membership::uniform(3), r(0), PaxosVariant::Bcast)
}

fn cmd(seq: u64) -> Command {
    Command::new(
        CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
        Bytes::from_static(b"op"),
    )
}

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

/// The initial regime of a leader-0 deployment.
fn b0() -> Ballot {
    Ballot {
        round: 0,
        proposer: r(0),
    }
}

fn b(round: u64, proposer: u16) -> Ballot {
    Ballot {
        round,
        proposer: r(proposer),
    }
}

fn accept(ballot: Ballot, first_instance: u64, cmds: Vec<Command>, origin: ReplicaId) -> PaxosMsg {
    PaxosMsg::Accept {
        ballot,
        first_instance,
        cmds: Batch::new(cmds),
        origin,
    }
}

fn acked(ballot: Ballot, up_to: u64) -> PaxosMsg {
    PaxosMsg::Accepted { ballot, up_to }
}

fn lease() -> LeaseConfig {
    LeaseConfig::after(400_000)
}

fn last_ack(sent: &[(ReplicaId, PaxosMsg)]) -> Option<u64> {
    sent.iter().rev().find_map(|(_, m)| match m {
        PaxosMsg::Accepted { up_to, .. } => Some(*up_to),
        _ => None,
    })
}

fn catch_up(from: u64, below: u64) -> PaxosMsg {
    PaxosMsg::CatchUp(CatchUp { from, below })
}

/// Catch-up runs for `[from, below)` under `promised`.
fn runs(promised: Ballot, from: u64, below: u64, entries: Vec<SuffixEntry>) -> PaxosMsg {
    PaxosMsg::CatchUpReply {
        promised,
        reply: CatchUpReply::Runs {
            from,
            below,
            runs: entries,
        },
    }
}

fn prepares(sent: &[(ReplicaId, PaxosMsg)]) -> Vec<Ballot> {
    sent.iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Prepare { ballot, .. } => Some(*ballot),
            _ => None,
        })
        .collect()
}

// ----------------------------------------------------------------------
// The stable-leader data plane (fail-over disabled)
// ----------------------------------------------------------------------

#[test]
fn follower_forwards_to_leader() {
    let mut s = Script::new(vec![bcast(1)]);
    s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(1)), ctx));
    assert_eq!(s[0].sent.len(), 1);
    assert_eq!(s[0].sent[0].0, r(0));
    assert!(matches!(s[0].sent[0].1, PaxosMsg::Forward { .. }));
}

#[test]
fn leader_assigns_consecutive_instances() {
    let mut s = Script::new(vec![bcast(0)]);
    s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(1)), ctx));
    s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(2)), ctx));
    let firsts: Vec<u64> = s[0]
        .sent
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept { first_instance, .. } => Some(*first_instance),
            _ => None,
        })
        .collect();
    // 2 peers × 2 commands (the leader self-delivers synchronously).
    assert_eq!(firsts.len(), 4);
    assert_eq!(firsts[0], 0);
    assert_eq!(firsts[3], 1);
}

#[test]
fn leader_binds_a_batch_to_one_instance_run() {
    let mut s = Script::new(vec![bcast(0)]);
    s.on(0, |p, ctx| {
        p.on_client_batch(Batch::new(vec![cmd(1), cmd(2), cmd(3)]), ctx)
    });
    let accepts: Vec<(u64, usize)> = s[0]
        .sent
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept {
                first_instance,
                cmds,
                ..
            } => Some((*first_instance, cmds.len())),
            _ => None,
        })
        .collect();
    assert_eq!(accepts.len(), 2, "one ACCEPT per peer for 3 cmds");
    assert!(accepts.iter().all(|&(f, k)| f == 0 && k == 3));
    assert_eq!(s.nodes[0].proto.next_instance, 3);
    assert_eq!(
        s.nodes[0].log.len(),
        1,
        "leader logs its own run synchronously"
    );
}

#[test]
fn accept_fanout_shares_the_batch_payload_across_peers() {
    // Allocation-lean fan-out: the leader's per-peer ACCEPT clones share
    // one Arc-backed command vector with the submitted batch instead of
    // deep-copying it per destination.
    let mut s = Script::new(vec![bcast(0)]);
    let batch = Batch::new((1..=64).map(cmd).collect());
    s.on(0, |p, ctx| p.on_client_batch(batch.clone(), ctx));
    let accepts: Vec<&Batch> = s[0]
        .sent
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept { cmds, .. } => Some(cmds),
            _ => None,
        })
        .collect();
    assert_eq!(accepts.len(), 2, "one ACCEPT per peer");
    for sent in &accepts {
        assert!(
            sent.ptr_eq(&batch),
            "a peer copy deep-cloned the command payload"
        );
    }
}

#[test]
fn bcast_commits_on_majority_acks() {
    let mut s = Script::new(vec![bcast(1)]);
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1)], r(0)));
    // Logged and broadcast its own cumulative 2b.
    assert_eq!(s.nodes[0].log.len(), 1);
    let own_acks = s[0]
        .sent
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::Accepted { up_to: 1, .. }))
        .count();
    assert_eq!(own_acks, 3);
    // Two 2b watermarks arrive (majority of 3 incl. someone else's).
    s.receive(0, r(0), acked(b0(), 1));
    assert!(s[0].executed.is_empty());
    s.receive(0, r(1), acked(b0(), 1));
    assert_eq!(s[0].executed.len(), 1);
    assert_eq!(s[0].executed[0].origin, r(0));
}

#[test]
fn one_ack_covers_a_whole_batch() {
    let mut s = Script::new(vec![bcast(1)]);
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1), cmd(2), cmd(3)], r(0)));
    assert_eq!(s.nodes[0].log.len(), 1, "the run is logged as one record");
    let acks: Vec<u64> = s[0]
        .sent
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accepted { up_to, .. } => Some(*up_to),
            _ => None,
        })
        .collect();
    assert_eq!(acks, vec![3, 3, 3], "ONE watermark ack per destination");
    // Majority watermarks commit the whole run at once, in order.
    s.receive(0, r(0), acked(b0(), 3));
    s.receive(0, r(1), acked(b0(), 3));
    assert_eq!(s[0].executed.len(), 3);
    let hints: Vec<u64> = s[0].executed.iter().map(|c| c.order_hint).collect();
    assert_eq!(hints, vec![0, 1, 2]);
}

#[test]
fn plain_follower_waits_for_commit_message() {
    let mut s = Script::new(vec![MultiPaxos::new(
        r(1),
        Membership::uniform(3),
        r(0),
        PaxosVariant::Plain,
    )]);
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1)], r(2)));
    // 2b goes to the leader only.
    let (to, _) = s[0]
        .sent
        .iter()
        .find(|(_, m)| matches!(m, PaxosMsg::Accepted { .. }))
        .unwrap();
    assert_eq!(*to, r(0));
    // Acks from others do nothing at a plain follower.
    s.receive(0, r(0), acked(b0(), 1));
    s.receive(0, r(2), acked(b0(), 1));
    assert!(s[0].executed.is_empty());
    s.receive(
        0,
        r(0),
        PaxosMsg::Commit {
            ballot: b0(),
            up_to: 1,
        },
    );
    assert_eq!(s[0].executed.len(), 1);
}

#[test]
fn plain_leader_broadcasts_commit_on_majority() {
    let mut s = Script::new(vec![MultiPaxos::new(
        r(0),
        Membership::uniform(3),
        r(0),
        PaxosVariant::Plain,
    )]);
    // propose() self-delivers the Accept synchronously: the run is
    // logged and the leader's own Accepted is already in flight.
    s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(1)), ctx));
    s.receive(0, r(0), acked(b0(), 1));
    s.receive(0, r(1), acked(b0(), 1));
    let commit_sends = s[0]
        .sent
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::Commit { .. }))
        .count();
    assert_eq!(commit_sends, 3);
}

#[test]
fn execution_is_in_instance_order_despite_commit_reorder() {
    let mut s = Script::new(vec![bcast(1)]);
    for i in 0..2 {
        s.receive(0, r(0), accept(b0(), i, vec![cmd(i)], r(0)));
    }
    // A watermark only covering instance 0 from one replica: nothing
    // commits yet (one ack is not a majority).
    s.receive(0, r(0), acked(b0(), 1));
    assert!(s[0].executed.is_empty(), "one ack is not a majority");
    // Majority watermarks covering both instances commit them in
    // instance order (cumulative acks make out-of-order commit of a
    // later instance impossible by construction).
    s.receive(0, r(0), acked(b0(), 2));
    s.receive(0, r(1), acked(b0(), 2));
    assert_eq!(s[0].executed.len(), 2);
    assert_eq!(s[0].executed[0].order_hint, 0);
    assert_eq!(s[0].executed[1].order_hint, 1);
}

#[test]
fn recovered_replica_never_acks_across_a_gap() {
    // B logged instances 0..2, crashed while 2..5 were in flight
    // (lost), recovered, and then receives the run starting at 5.
    // Its cumulative ack must stay at the gap — claiming 5..8 would
    // falsely vouch for the lost 2..5 and break quorum intersection.
    let mut s = Script::new(vec![bcast(1)]);
    let log = vec![
        PaxosLogRec::Accept {
            first: 0,
            ballot: b0(),
            cmds: Batch::single(cmd(1)),
            origin: r(0),
        },
        PaxosLogRec::Accept {
            first: 1,
            ballot: b0(),
            cmds: Batch::single(cmd(2)),
            origin: r(0),
        },
    ];
    s.on(0, |p, ctx| p.on_recover(&log, ctx));
    s.receive(0, r(0), accept(b0(), 5, vec![cmd(6), cmd(7), cmd(8)], r(0)));
    let acks: Vec<u64> = s[0]
        .sent
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accepted { up_to, .. } => Some(*up_to),
            _ => None,
        })
        .collect();
    assert!(
        acks.iter().all(|&w| w <= 2),
        "watermark crossed the gap: {acks:?}"
    );
    // The post-gap run is still logged for state transfer.
    assert_eq!(s.nodes[0].log.len(), 1);
}

#[test]
fn late_accept_fills_an_already_committed_instance_and_executes() {
    // Accepted watermarks can outrun the Accept itself via faster
    // relays (the EC2 matrix violates the triangle inequality): the
    // commit watermark covers instance 0 before its command arrives.
    // The late Accept must trigger execution — nothing else retries.
    let mut s = Script::new(vec![bcast(1)]);
    s.receive(0, r(0), acked(b0(), 1));
    s.receive(0, r(2), acked(b0(), 1));
    assert!(s[0].executed.is_empty(), "command not yet known");
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1)], r(0)));
    assert_eq!(s[0].executed.len(), 1, "late accept must resume execution");
    assert_eq!(s[0].executed[0].order_hint, 0);
}

#[test]
fn recovered_replica_resumes_acking_once_the_gap_commits() {
    // Same gap as above, but the cluster then commits past it
    // (Commit watermark from the leader): the hole is now globally
    // decided, so covering it cumulatively adds no false quorum
    // evidence — the replica's watermark may jump and it resumes
    // quorum duty for new instances.
    let mut s = Script::new(vec![MultiPaxos::new(
        r(1),
        Membership::uniform(3),
        r(0),
        PaxosVariant::Plain,
    )]);
    let log = vec![PaxosLogRec::Accept {
        first: 0,
        ballot: b0(),
        cmds: Batch::single(cmd(1)),
        origin: r(0),
    }];
    s.on(0, |p, ctx| p.on_recover(&log, ctx));
    // Gap: instances 1..3 were lost; the run starting at 3 must not
    // be vouched for yet.
    s.receive(0, r(0), accept(b0(), 3, vec![cmd(4)], r(0)));
    assert_eq!(last_ack(&s[0].sent), Some(1));
    // The leader announces everything below 4 committed, then sends
    // the next run: the watermark jumps over the decided hole.
    s.receive(
        0,
        r(0),
        PaxosMsg::Commit {
            ballot: b0(),
            up_to: 4,
        },
    );
    s.receive(0, r(0), accept(b0(), 4, vec![cmd(5), cmd(6)], r(0)));
    assert_eq!(
        last_ack(&s[0].sent),
        Some(6),
        "ack watermark must resume past a committed gap"
    );
}

#[test]
fn leader_recovery_never_reuses_instances() {
    // The leader logs its own Accept run synchronously in propose();
    // a crash right after proposing (before any network round-trip)
    // must not let recovery re-assign the same instance numbers to
    // new commands — followers may have logged or committed the
    // originals, and a re-proposal would fork execution.
    let mut s = Script::new(vec![bcast(0)]);
    s.on(0, |p, ctx| {
        p.on_client_batch(Batch::new(vec![cmd(1), cmd(2)]), ctx)
    });
    assert_eq!(
        s.nodes[0].log.len(),
        1,
        "run logged before any network round-trip"
    );
    s.restart(0, bcast(0));
    s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(3)), ctx));
    let firsts: Vec<u64> = s[0]
        .sent
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept { first_instance, .. } => Some(*first_instance),
            _ => None,
        })
        .collect();
    assert!(!firsts.is_empty());
    assert!(
        firsts.iter().all(|&f| f >= 2),
        "instances 0..2 must not be reused: {firsts:?}"
    );
}

#[test]
fn recovered_replica_reextends_watermark_past_a_committed_gap_under_load() {
    // B logged instance 0 and lost 1..3 in its crash. Under
    // pipelined load the commit watermark always trails the newest
    // accept run, so the on_accept jump alone never fires; the
    // watermark must also re-extend when commits advance past the
    // gap, or B acks up_to=1 forever and never rejoins quorums.
    let mut s = Script::new(vec![bcast(1)]);
    let log = vec![PaxosLogRec::Accept {
        first: 0,
        ballot: b0(),
        cmds: Batch::single(cmd(1)),
        origin: r(0),
    }];
    s.on(0, |p, ctx| p.on_recover(&log, ctx));
    // Run [3,4) arrives while the gap is still uncommitted.
    s.receive(0, r(0), accept(b0(), 3, vec![cmd(4)], r(0)));
    assert_eq!(last_ack(&s[0].sent), Some(1));
    // Peer watermarks commit through the gap (to 3) while run [4,5)
    // is already in flight.
    s.receive(0, r(0), acked(b0(), 3));
    s.receive(0, r(2), acked(b0(), 3));
    // The pipelined run arrives with committed_next (3) still below
    // its first instance (4): the watermark must nevertheless cover
    // the decided gap plus the contiguously logged instance 3.
    s.receive(0, r(0), accept(b0(), 4, vec![cmd(5)], r(0)));
    assert_eq!(last_ack(&s[0].sent), Some(5), "watermark frozen at the gap");
}

#[test]
fn checkpoints_compact_the_log_below_the_watermark() {
    let mut s = Script::new(vec![bcast(1).with_checkpoints(CheckpointPolicy::every(2))]);
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1), cmd(2)], r(0)));
    // A pending third instance that must survive compaction.
    s.receive(0, r(0), accept(b0(), 2, vec![cmd(3)], r(0)));
    s.receive(0, r(0), acked(b0(), 2));
    s.receive(0, r(2), acked(b0(), 2));
    assert_eq!(s[0].executed.len(), 2, "first run committed");
    // Compaction replaced 2 accepted runs + 2 commit marks with
    // checkpoint + promise + the pending accept for instance 2.
    assert_eq!(s.nodes[0].log.len(), 3, "log: {:?}", s.nodes[0].log);
    assert!(matches!(&s.nodes[0].log[0], PaxosLogRec::Checkpoint(cp) if cp.applied == 2));
    assert!(matches!(&s.nodes[0].log[1], PaxosLogRec::Promised(_)));
    assert!(matches!(
        &s.nodes[0].log[2],
        PaxosLogRec::Accept { first: 2, .. }
    ));
}

#[test]
fn recovery_restores_checkpoint_and_replays_only_the_suffix() {
    let policy = CheckpointPolicy::every(2);
    let mut s = Script::new(vec![bcast(1).with_checkpoints(policy)]);
    // Two bursts: the first trips the checkpoint at watermark 2, the
    // third command lands after it and stays in the log suffix.
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1), cmd(2)], r(0)));
    s.receive(0, r(0), acked(b0(), 2));
    s.receive(0, r(2), acked(b0(), 2));
    s.receive(0, r(0), accept(b0(), 2, vec![cmd(3)], r(0)));
    s.receive(0, r(0), acked(b0(), 3));
    s.receive(0, r(2), acked(b0(), 3));
    assert_eq!(s.applied(0), vec![1, 2, 3]);

    s.restart(0, bcast(1));
    assert_eq!(s.applied(0), vec![1, 2, 3], "snapshot prefix + suffix");
    assert_eq!(s[0].executed.len(), 1, "only instance 2 replayed");
    assert_eq!(s.nodes[0].proto.executed(), 3);
    // The ack watermark resumes above the checkpoint.
    s.receive(0, r(0), accept(b0(), 3, vec![cmd(4)], r(0)));
    assert_eq!(last_ack(&s[0].sent), Some(4));
}

/// Recovery replay feeds the checkpoint trigger like live execution: a
/// replica that crashes every 2 commits — more often than its 5-commit
/// interval — still checkpoints.
#[test]
fn crashing_more_often_than_the_interval_still_checkpoints() {
    let replica = || bcast(1).with_checkpoints(CheckpointPolicy::every(5));
    let mut s = Script::new(vec![replica()]);
    for life in 0..4u64 {
        // A crash loses the replica and its state machine; the log stays.
        s.restart(0, replica());
        let (first, next) = (2 * life, 2 * life + 2);
        let cmds = vec![cmd(first + 1), cmd(first + 2)];
        s.receive(0, r(0), accept(b0(), first, cmds, r(0)));
        s.receive(0, r(0), acked(b0(), next));
        s.receive(0, r(2), acked(b0(), next));
    }
    assert_eq!(s.applied(0), (1..=8).collect::<Vec<u64>>());
    let checkpoints: Vec<u64> = s.nodes[0]
        .log
        .iter()
        .filter_map(|l| match l {
            PaxosLogRec::Checkpoint(cp) => Some(cp.applied),
            _ => None,
        })
        .collect();
    assert_eq!(
        checkpoints,
        vec![6],
        "4 replayed + 2 live commits pass the interval in the third life"
    );
}

#[test]
fn confirmed_stall_requests_transfer_and_install_converges() {
    // Healthy r2 (at position 0) executes instances 0..4.
    let mut s = Script::new(vec![bcast(2), bcast(1)]);
    let run = accept(b0(), 0, vec![cmd(1), cmd(2), cmd(3), cmd(4)], r(0));
    s.receive(0, r(0), run);
    s.receive(0, r(0), acked(b0(), 4));
    s.receive(0, r(1), acked(b0(), 4));
    assert_eq!(s.nodes[0].proto.executed(), 4);

    // r1 (at position 1) recovered with an empty log: instances 0..4
    // were lost in its outage. The next run plus peer watermarks commit
    // through 5, but execution stalls at the hole.
    s.on(1, |p, ctx| p.on_recover(&[], ctx));
    s.receive(1, r(0), accept(b0(), 4, vec![cmd(5)], r(0)));
    s.receive(1, r(0), acked(b0(), 5));
    s.receive(1, r(2), acked(b0(), 5));
    let requests = |s: &Script<MultiPaxos>| -> Vec<(ReplicaId, u64, u64)> {
        let sent = s[1].sent.iter();
        sent.filter_map(|(to, m)| match m {
            PaxosMsg::CatchUp(req) => Some((*to, req.from, req.below)),
            _ => None,
        })
        .collect()
    };
    assert_eq!(
        requests(&s),
        [(r(0), 0, 4)],
        "the vouch gap asks the leader, but a fresh execution hole asks \
         nobody (accepts may be in flight)"
    );
    // The hole persists past the confirmation window: the next pass
    // over it queries one peer (round-robin; the other peer is next
    // if this round goes unanswered).
    s[1].clock = 1_000_000;
    s.receive(1, r(0), accept(b0(), 4, vec![cmd(5)], r(0)));
    assert_eq!(requests(&s).len(), 2, "confirmed stall queries one peer");
    // Another confirmation window with no reply: the retry rotates
    // to the remaining peer.
    s[1].clock = 2_000_000;
    s.receive(1, r(0), accept(b0(), 4, vec![cmd(5)], r(0)));
    assert_eq!(
        requests(&s)[1..],
        [(r(0), 0, 5), (r(2), 0, 5)],
        "retries rotate over the peers"
    );

    // The healthy follower answers with its checkpoint; installing it
    // fills the hole and execution converges on the same state.
    s[0].sent.clear();
    s.receive(0, r(1), catch_up(0, 5));
    let (to, reply) = s[0]
        .sent
        .iter()
        .find(|(_, m)| {
            matches!(
                m,
                PaxosMsg::CatchUpReply {
                    reply: CatchUpReply::Snapshot(_),
                    ..
                }
            )
        })
        .cloned()
        .expect("healthy peer must serve a checkpoint");
    assert_eq!(to, r(1));
    s.receive(1, r(2), reply);
    assert_eq!(
        s.applied(1),
        vec![1, 2, 3, 4, 5],
        "installed prefix + executed suffix must match the healthy replica"
    );
    // Acks resumed from the installed watermark.
    assert!(
        s[1].sent
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Accepted { up_to, .. } if *up_to >= 5)),
        "watermark must resume past the installed prefix"
    );
}

#[test]
fn stale_state_reply_is_ignored() {
    let mut s = Script::new(vec![bcast(1)]);
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1), cmd(2)], r(0)));
    s.receive(0, r(0), acked(b0(), 2));
    s.receive(0, r(2), acked(b0(), 2));
    assert_eq!(s.nodes[0].proto.executed(), 2);
    let stale = PaxosMsg::CatchUpReply {
        promised: b0(),
        reply: CatchUpReply::Snapshot(Checkpoint {
            applied: 1,
            epoch: Epoch::ZERO,
            config: vec![r(0), r(1), r(2)],
            snapshot: Bytes::from_static(b""),
            sessions: Bytes::new(),
        }),
    };
    s.receive(0, r(0), stale);
    assert_eq!(
        s.nodes[0].proto.executed(),
        2,
        "a stale reply must not regress anything"
    );
    assert_eq!(s.applied(0), vec![1, 2], "state machine untouched");
}

#[test]
fn recovery_replays_committed_prefix() {
    let mut s = Script::new(vec![bcast(1)]);
    let log = vec![
        PaxosLogRec::Accept {
            first: 0,
            ballot: b0(),
            cmds: Batch::single(cmd(1)),
            origin: r(0),
        },
        PaxosLogRec::Accept {
            first: 1,
            ballot: b0(),
            cmds: Batch::single(cmd(2)),
            origin: r(2),
        },
        PaxosLogRec::Commit { instance: 0 },
    ];
    s.on(0, |p, ctx| p.on_recover(&log, ctx));
    assert_eq!(s[0].executed.len(), 1);
    assert_eq!(s[0].executed[0].order_hint, 0);
    assert_eq!(s.nodes[0].proto.executed(), 1);
    // The uncommitted instance 1 stays pending; later watermarks
    // covering it resume execution.
    s.receive(0, r(0), acked(b0(), 2));
    s.receive(0, r(2), acked(b0(), 2));
    assert_eq!(s[0].executed.len(), 2);
}

#[test]
fn replay_lets_a_later_record_win_inside_a_run() {
    // A run of four at the initial ballot, then a repair at a higher
    // ballot that re-asserts instance 1 with another command and closes
    // instance 2 with a no-op: replay applies the records in log order,
    // so the later record wins for the slots inside the run.
    let mut s = Script::new(vec![bcast(1)]);
    let repair = b(1, 2);
    let mut log = vec![
        PaxosLogRec::Accept {
            first: 0,
            ballot: b0(),
            cmds: Batch::new(vec![cmd(1), cmd(2), cmd(3), cmd(6)]),
            origin: r(0),
        },
        PaxosLogRec::Accept {
            first: 1,
            ballot: repair,
            cmds: Batch::single(cmd(4)),
            origin: r(2),
        },
        PaxosLogRec::Noop {
            instance: 2,
            ballot: repair,
        },
    ];
    log.extend((0..4).map(|instance| PaxosLogRec::Commit { instance }));
    s.on(0, |p, ctx| p.on_recover(&log, ctx));
    let executed: Vec<(u64, u64, ReplicaId)> = s[0]
        .executed
        .iter()
        .map(|c| (c.cmd.id.seq, c.order_hint, c.origin))
        .collect();
    assert_eq!(executed, [(1, 0, r(0)), (4, 1, r(2)), (6, 3, r(0))]);
    assert_eq!(s.nodes[0].proto.executed(), 4);
}

// ----------------------------------------------------------------------
// Leader election and lease-based fail-over
// ----------------------------------------------------------------------

#[test]
fn stale_ballot_accept_from_deposed_leader_is_rejected() {
    // The acceptance-criterion regression: an acceptor that promised a
    // candidate must Nack the deposed leader's in-flight Accept — not
    // log it, not ack it.
    let mut s = Script::new(vec![bcast(2).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1)], r(0)));
    assert_eq!(s.nodes[0].log.len(), 1);
    // r1's candidacy: once this acceptor's own lease has expired
    // (leader stickiness), it promises ballot (1, r1).
    s[0].clock += lease().timeout_us + 1;
    s.receive(
        0,
        r(1),
        PaxosMsg::Prepare {
            ballot: b(1, 1),
            from_instance: 0,
        },
    );
    assert_eq!(s.nodes[0].proto.promised, b(1, 1));
    let logged_before = s.nodes[0].log.len();
    let acks_before = s[0]
        .sent
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::Accepted { .. }))
        .count();
    // The deposed leader's in-flight run arrives at the old ballot.
    s.receive(0, r(0), accept(b0(), 1, vec![cmd(2)], r(0)));
    let nacks: Vec<(ReplicaId, Ballot)> = s[0]
        .sent
        .iter()
        .filter_map(|(to, m)| match m {
            PaxosMsg::Nack { promised } => Some((*to, *promised)),
            _ => None,
        })
        .collect();
    assert_eq!(nacks, vec![(r(0), b(1, 1))], "stale accept must be nacked");
    assert_eq!(
        s.nodes[0].log.len(),
        logged_before,
        "stale accept must not log"
    );
    let acks_after = s[0]
        .sent
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::Accepted { .. }))
        .count();
    assert_eq!(acks_after, acks_before, "stale accept must not be acked");
}

#[test]
fn lease_expiry_starts_a_staggered_election() {
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    // Before the staggered timeout (400ms + 1×100ms for index 1): quiet.
    s[0].clock = 400_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    assert!(prepares(&s[0].sent).is_empty(), "lease not yet expired");
    assert!(s.nodes[0].proto.election.is_none());
    // Past it: a candidacy at round 1 solicits everyone, self included.
    s[0].clock = 600_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    assert_eq!(prepares(&s[0].sent), vec![b(1, 1); 3]);
    assert!(s.nodes[0].proto.election.is_some());
}

#[test]
fn heartbeat_renews_the_lease() {
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock = 450_000;
    s.receive(
        0,
        r(0),
        PaxosMsg::Heartbeat {
            ballot: b0(),
            committed: 0,
        },
    );
    // Half a lease later the renewal still holds.
    s[0].clock = 800_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    assert!(
        prepares(&s[0].sent).is_empty(),
        "heartbeat must renew the lease"
    );
    // Silence past the stagger finally triggers suspicion.
    s[0].clock = 2_000_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    assert!(!prepares(&s[0].sent).is_empty());
}

#[test]
fn leader_heartbeats_when_idle() {
    let mut s = Script::new(vec![bcast(0).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    let heartbeats = s[0]
        .sent
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::Heartbeat { .. }))
        .count();
    assert_eq!(heartbeats, 2, "one heartbeat per peer, none to self");
}

#[test]
fn promise_reports_the_accepted_suffix_with_ballots() {
    let mut s = Script::new(vec![bcast(2).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1), cmd(2), cmd(3)], r(0)));
    s[0].clock += lease().timeout_us + 1; // leader stickiness: lease must lapse
    s.receive(
        0,
        r(1),
        PaxosMsg::Prepare {
            ballot: b(1, 1),
            from_instance: 1,
        },
    );
    let (to, promise) = s[0]
        .sent
        .iter()
        .find(|(_, m)| matches!(m, PaxosMsg::Promise { .. }))
        .cloned()
        .expect("promise must be sent");
    assert_eq!(to, r(1));
    let PaxosMsg::Promise {
        ballot,
        from_instance,
        committed,
        entries,
    } = promise
    else {
        unreachable!()
    };
    assert_eq!((ballot, from_instance, committed), (b(1, 1), 1, 0));
    let reported: Vec<(u64, Ballot)> = entries.iter().map(|e| (e.instance, e.ballot)).collect();
    assert_eq!(reported, vec![(1, b0()), (2, b0())]);
    assert!(entries.iter().all(|e| e.value.is_some()));
    // The promise is durable before it leaves.
    assert!(s.nodes[0]
        .log
        .iter()
        .any(|rec| matches!(rec, PaxosLogRec::Promised(pb) if *pb == b(1, 1))));
}

#[test]
fn election_win_merges_highest_ballot_and_noops_holes() {
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock = 600_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    let ballot = b(1, 1);
    assert_eq!(prepares(&s[0].sent), vec![ballot; 3]);
    // Own promise (empty log, nothing committed).
    s.receive(
        0,
        r(1),
        PaxosMsg::Prepare {
            ballot,
            from_instance: 0,
        },
    );
    s.receive(
        0,
        r(1),
        PaxosMsg::Promise {
            ballot,
            from_instance: 0,
            committed: 0,
            entries: vec![],
        },
    );
    assert!(
        !s.nodes[0].proto.is_leader(),
        "one promise is not a majority"
    );
    // r2 reports instance 1 accepted at the old regime — instance 0 is
    // a hole nobody accepted, provably unchosen.
    s.receive(
        0,
        r(2),
        PaxosMsg::Promise {
            ballot,
            from_instance: 0,
            committed: 0,
            entries: vec![SuffixEntry {
                instance: 1,
                ballot: b0(),
                value: Some((cmd(42), r(0))),
            }],
        },
    );
    assert!(s.nodes[0].proto.is_leader(), "majority of promises elects");
    assert_eq!(s.nodes[0].proto.regime, ballot);
    assert_eq!(s.nodes[0].proto.regime.proposer, r(1));
    // The repair closes the hole with a no-op and re-proposes the
    // inherited value at the new ballot.
    let (_, repair) = s[0]
        .sent
        .iter()
        .find(|(_, m)| matches!(m, PaxosMsg::Repair { .. }))
        .cloned()
        .expect("winner must broadcast a repair");
    let PaxosMsg::Repair {
        ballot: rb,
        floor,
        entries,
    } = repair
    else {
        unreachable!()
    };
    assert_eq!((rb, floor), (ballot, 0));
    assert_eq!(entries.len(), 2);
    assert!(entries[0].value.is_none(), "hole closed with a no-op");
    assert_eq!(entries[1].value.as_ref().unwrap().0.id.seq, 42);
    // The new leader logged its own repair durably and vouches for it.
    assert!(s.nodes[0]
        .log
        .iter()
        .any(|rec| matches!(rec, PaxosLogRec::Noop { instance: 0, .. })));
    assert_eq!(last_ack(&s[0].sent), Some(2));
    // Majority acks at the new regime (own looped-back broadcast plus
    // r2's) commit the repaired suffix; the no-op advances execution
    // without reaching the state machine.
    s.receive(0, r(1), acked(ballot, 2));
    s.receive(0, r(2), acked(ballot, 2));
    assert_eq!(
        s.nodes[0].proto.executed(),
        2,
        "noop + inherited command executed"
    );
    assert_eq!(s[0].executed.len(), 1, "the noop never reaches the app");
    assert_eq!(s[0].executed[0].order_hint, 1);
    assert_eq!(s[0].executed[0].cmd.id.seq, 42);
    // The data plane resumes above the repaired suffix.
    s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(7)), ctx));
    let new_accepts: Vec<(Ballot, u64)> = s[0]
        .sent
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept {
                ballot,
                first_instance,
                ..
            } => Some((*ballot, *first_instance)),
            _ => None,
        })
        .collect();
    assert!(new_accepts.contains(&(ballot, 2)), "{new_accepts:?}");
}

#[test]
fn repair_supersedes_stale_acceptances_and_drops_the_uncommitted_tail() {
    let mut s = Script::new(vec![bcast(2).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    // Old-regime acceptances at instances 0 and 3 (1 and 2 lost).
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1)], r(0)));
    s.receive(0, r(0), accept(b0(), 3, vec![cmd(4)], r(0)));
    // The new leader's repair chose a different value for 0 and proved
    // 1 unchosen; everything above its top (instance 2+) was never
    // merged, so the stale acceptance at 3 is dropped.
    let ballot = b(1, 1);
    s.receive(
        0,
        r(1),
        PaxosMsg::Repair {
            ballot,
            floor: 0,
            entries: vec![
                SuffixEntry {
                    instance: 0,
                    ballot,
                    value: Some((cmd(10), r(1))),
                },
                SuffixEntry {
                    instance: 1,
                    ballot,
                    value: None,
                },
            ],
        },
    );
    assert_eq!(s.nodes[0].proto.regime, ballot);
    assert_eq!(
        last_ack(&s[0].sent),
        Some(2),
        "vouch covers exactly the repair"
    );
    // A later prepare (after the new regime's lease lapses) sees the
    // repaired suffix only.
    s[0].clock += lease().timeout_us + 1;
    s.receive(
        0,
        r(0),
        PaxosMsg::Prepare {
            ballot: b(2, 0),
            from_instance: 0,
        },
    );
    let PaxosMsg::Promise { entries, .. } = s[0]
        .sent
        .iter()
        .rev()
        .find_map(|(_, m)| match m {
            PaxosMsg::Promise { .. } => Some(m.clone()),
            _ => None,
        })
        .unwrap()
    else {
        unreachable!()
    };
    let reported: Vec<u64> = entries.iter().map(|e| e.instance).collect();
    assert_eq!(reported, vec![0, 1], "stale instance 3 must be dropped");
    assert!(entries.iter().all(|e| e.ballot == ballot));
    assert_eq!(entries[0].value.as_ref().unwrap().0.id.seq, 10);
}

/// The vouch watermark a walk from the committed watermark reaches: the
/// reference the resumed walk of the commit paths must agree with.
fn full_vouch_walk(p: &MultiPaxos) -> u64 {
    let mut w = p.committed_next;
    while p.instances.get(&w).is_some_and(|s| s.verified) {
        w += 1;
    }
    w
}

#[test]
fn resumed_vouch_walk_matches_the_full_walk_under_a_deep_pipeline() {
    const BATCH: u64 = 64;
    const DEPTH: u64 = 64;
    let mut s = Script::new(vec![bcast(0).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    let mut seq = 0;
    let mut batch = || {
        seq += BATCH;
        (seq - BATCH + 1..=seq).map(cmd).collect::<Vec<_>>()
    };
    // After every step: the watermark and the `Accepted` the step sent
    // (if any) equal a full walk; then the replica's own sends loop
    // back, so its `Accepted` counts toward its quorums.
    let check = |s: &mut Script<MultiPaxos>, step: &str| {
        let full = full_vouch_walk(&s.nodes[0].proto);
        assert_eq!(s.nodes[0].proto.logged_next, full, "{step}");
        if let Some(up_to) = last_ack(&s[0].sent) {
            assert_eq!(up_to, full, "{step}: Accepted");
        }
        for (to, msg) in std::mem::take(&mut s[0].sent) {
            if to == r(0) {
                s.receive(0, r(0), msg);
            }
        }
    };

    // A leader with DEPTH batches accepted and none committed.
    for k in 0..DEPTH {
        let cmds = batch();
        s.on(0, |p, ctx| p.on_client_batch(Batch::new(cmds), ctx));
        check(&mut s, &format!("propose {k}"));
    }
    assert_eq!(s.nodes[0].proto.logged_next, DEPTH * BATCH);
    // Commit one batch at a time while proposing one more, so each
    // commit step resumes a whole pipeline ahead of the watermark.
    for k in 1..=DEPTH / 2 {
        s.receive(0, r(1), acked(b0(), k * BATCH));
        assert_eq!(s.nodes[0].proto.committed_next, k * BATCH);
        check(&mut s, &format!("commit {k}"));
        let cmds = batch();
        s.on(0, |p, ctx| p.on_client_batch(Batch::new(cmds), ctx));
        check(&mut s, &format!("propose after commit {k}"));
    }
    let committed = s.nodes[0].proto.committed_next;
    assert_eq!(s.nodes[0].proto.logged_next - committed, DEPTH * BATCH);

    // A newer leader's Accept mid-pipeline: adopting its regime demotes
    // every old-ballot slot, so the watermark must fall back to the
    // accepted run instead of resuming at the old tail.
    let b1 = b(1, 1);
    s.receive(0, r(1), accept(b1, committed, batch(), r(1)));
    assert_eq!(s.nodes[0].proto.regime, b1);
    check(&mut s, "higher-ballot accept");
    assert_eq!(s.nodes[0].proto.logged_next, committed + BATCH);
    s.receive(0, r(1), acked(b1, committed + BATCH));
    check(&mut s, "commit under the new regime");

    // A third leader's repair re-proposes one batch above the commit
    // watermark and drops the tail beyond it; its Accepts and Accepted
    // then grow the pipeline again.
    let b2 = b(2, 2);
    let floor = s.nodes[0].proto.committed_next;
    let entries = (floor..)
        .zip(batch())
        .map(|(instance, c)| SuffixEntry {
            instance,
            ballot: b2,
            value: Some((c, r(2))),
        })
        .collect();
    s.receive(
        0,
        r(2),
        PaxosMsg::Repair {
            ballot: b2,
            floor,
            entries,
        },
    );
    check(&mut s, "repair");
    assert_eq!(s.nodes[0].proto.logged_next, floor + BATCH);
    let top = s.nodes[0].proto.instances.keys().next_back().copied();
    assert_eq!(
        top,
        Some(floor + BATCH - 1),
        "the tail above the repair is gone"
    );
    for k in 1..=8 {
        let first = floor + k * BATCH;
        s.receive(0, r(2), accept(b2, first, batch(), r(2)));
        check(&mut s, &format!("accept {k} after the repair"));
        s.receive(0, r(2), acked(b2, first));
        check(&mut s, &format!("commit {k} after the repair"));
    }
    assert_eq!(s.nodes[0].proto.committed_next, floor + 8 * BATCH);
    assert_eq!(s.nodes[0].proto.logged_next, floor + 9 * BATCH);
}

#[test]
fn deposed_leader_steps_down_on_nack_and_forwards() {
    let mut s = Script::new(vec![bcast(0).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(1)), ctx));
    assert!(s.nodes[0].proto.is_leader());
    s.receive(0, r(2), PaxosMsg::Nack { promised: b(3, 1) });
    assert!(
        !s.nodes[0].proto.is_leader(),
        "a higher promise deposes the leader"
    );
    // Subsequent client traffic flows toward the fencing candidate.
    s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(2)), ctx));
    let (to, last) = s[0].sent.last().unwrap();
    assert_eq!(*to, r(1));
    assert!(matches!(last, PaxosMsg::Forward { .. }));
    // And the step-down is durable: recovery must not resurrect the
    // old regime's proposer role at the stale ballot.
    s.restart(0, bcast(0).with_failover(lease()));
    assert_eq!(s.nodes[0].proto.promised, b(3, 1));
    assert!(!s.nodes[0].proto.is_leader());
}

#[test]
fn dueling_candidate_defers_to_a_higher_ballot() {
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock = 600_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    assert!(s.nodes[0].proto.election.is_some());
    // A competing candidacy at a higher ballot solicits us: grant it
    // and stand down.
    s.receive(
        0,
        r(2),
        PaxosMsg::Prepare {
            ballot: b(2, 2),
            from_instance: 0,
        },
    );
    assert!(
        s.nodes[0].proto.election.is_none(),
        "outbid candidacy must stand down"
    );
    assert_eq!(s.nodes[0].proto.promised, b(2, 2));
    assert!(
        s[0].sent
            .iter()
            .any(|(to, m)| *to == r(2) && matches!(m, PaxosMsg::Promise { .. })),
        "the higher candidacy still gets our promise"
    );
}

#[test]
fn candidacy_round_is_durable_before_the_prepare_leaves() {
    // A crash mid-candidacy must never let recovery reuse the same
    // ballot: peers may have promised it, and a second campaign at an
    // identical ballot could count stale first-campaign promises. The
    // round is logged synchronously in start_election (the same crash
    // window propose() closes), not via the async self-sent Prepare.
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock = 600_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    let log = &s.nodes[0].log;
    assert!(
        log.iter()
            .any(|rec| matches!(rec, PaxosLogRec::Promised(pb) if *pb == b(1, 1))),
        "candidacy ballot must be durable before the broadcast: {log:?}"
    );
    // Crash before any self-delivery; the recovered replica's next
    // candidacy outbids its own lost one.
    s.restart(0, bcast(1).with_failover(lease()));
    s[0].clock += 600_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    assert_eq!(
        prepares(&s[0].sent),
        vec![b(2, 1); 3],
        "round 1 must not be reused"
    );
}

#[test]
fn candidate_retries_at_a_higher_round() {
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock = 600_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    // A nack tells us round 4 exists somewhere; the retry outbids it.
    s.receive(0, r(2), PaxosMsg::Nack { promised: b(4, 2) });
    assert!(
        s.nodes[0].proto.election.is_none(),
        "outbid candidacy stands down"
    );
    s[0].clock = 900_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    let rounds: Vec<u64> = prepares(&s[0].sent).iter().map(|b| b.round).collect();
    assert_eq!(rounds, vec![1, 1, 1, 5, 5, 5], "retry outbids round 4");
}

#[test]
fn acks_from_an_older_regime_are_never_counted() {
    // The new leader must not commit on vouches earned under the old
    // one: the sender's prefix may hold superseded values.
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1)], r(0)));
    // Election: r1 wins at (1, r1) with an empty merge except r2's
    // report of instance 0.
    s[0].clock = 600_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    let ballot = b(1, 1);
    s.receive(
        0,
        r(1),
        PaxosMsg::Prepare {
            ballot,
            from_instance: 0,
        },
    );
    let own_promise = s[0]
        .sent
        .iter()
        .rev()
        .find_map(|(_, m)| match m {
            PaxosMsg::Promise { .. } => Some(m.clone()),
            _ => None,
        })
        .unwrap();
    s.receive(0, r(1), own_promise);
    s.receive(
        0,
        r(2),
        PaxosMsg::Promise {
            ballot,
            from_instance: 0,
            committed: 0,
            entries: vec![],
        },
    );
    assert!(s.nodes[0].proto.is_leader());
    // Old-regime acks arrive late: ignored, nothing commits.
    s.receive(0, r(0), acked(b0(), 1));
    s.receive(0, r(2), acked(b0(), 1));
    assert!(s[0].executed.is_empty(), "old-regime acks must not commit");
    // Current-regime acks (own looped-back one plus r2's) do.
    s.receive(0, r(1), acked(ballot, 1));
    s.receive(0, r(2), acked(ballot, 1));
    assert_eq!(s.nodes[0].proto.executed(), 1);
}

#[test]
fn compaction_preserves_the_promise_across_recovery() {
    let mut s = Script::new(vec![bcast(1)
        .with_checkpoints(CheckpointPolicy::every(2))
        .with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1), cmd(2)], r(0)));
    // Promise a candidate (once the lease lapses — leader stickiness),
    // then let the checkpoint compact the log.
    s[0].clock += lease().timeout_us + 1;
    s.receive(
        0,
        r(2),
        PaxosMsg::Prepare {
            ballot: b(5, 2),
            from_instance: 0,
        },
    );
    s.receive(0, r(0), acked(b0(), 2));
    s.receive(0, r(2), acked(b0(), 2));
    let log = &s.nodes[0].log;
    assert!(
        log.iter()
            .any(|rec| matches!(rec, PaxosLogRec::Promised(pb) if *pb == b(5, 2))),
        "compaction must preserve the promise: {log:?}"
    );
    // Recovery restores it, and the deposed regime stays fenced.
    s.restart(0, bcast(1).with_failover(lease()));
    assert_eq!(s.nodes[0].proto.promised, b(5, 2));
    s.receive(0, r(0), accept(b0(), 2, vec![cmd(3)], r(0)));
    assert!(
        s[0].sent
            .iter()
            .any(|(to, m)| *to == r(0) && matches!(m, PaxosMsg::Nack { .. })),
        "a recovered acceptor must not regress its promise"
    );
}

#[test]
fn recovered_suffix_is_not_executed_under_a_newer_regime_until_revalidated() {
    // r1 logged an uncommitted acceptance, crashed, and an election it
    // slept through may have superseded the value. Commit evidence from
    // the *new* regime must not execute the stale slot; the repair's
    // re-proposal (or a checkpoint install) is what re-validates it.
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    let log = vec![PaxosLogRec::Accept {
        first: 0,
        ballot: b0(),
        cmds: Batch::single(cmd(1)),
        origin: r(0),
    }];
    s.on(0, |p, ctx| p.on_recover(&log, ctx));
    s.on(0, |p, ctx| p.on_start(ctx));
    let ballot = b(2, 2);
    s.receive(0, r(2), PaxosMsg::Commit { ballot, up_to: 1 });
    assert!(
        s[0].executed.is_empty(),
        "a suspect slot must not execute under a newer regime"
    );
    // The new leader's repair re-proposes the (here: same) value at its
    // ballot — now it is trusted and executes.
    s.receive(
        0,
        r(2),
        PaxosMsg::Repair {
            ballot,
            floor: 0,
            entries: vec![SuffixEntry {
                instance: 0,
                ballot,
                value: Some((cmd(1), r(0))),
            }],
        },
    );
    assert_eq!(s[0].executed.len(), 1);
    assert_eq!(s[0].executed[0].cmd.id.seq, 1);
}

#[test]
fn recovered_suffix_still_executes_under_its_own_regime() {
    // The same recovery without any election: commit evidence at the
    // slot's own ballot proves the value committed as-is (a regime's
    // leader has one value per instance), so the replay-era gap rule
    // keeps working with fail-over enabled.
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    let log = vec![PaxosLogRec::Accept {
        first: 0,
        ballot: b0(),
        cmds: Batch::single(cmd(1)),
        origin: r(0),
    }];
    s.on(0, |p, ctx| p.on_recover(&log, ctx));
    s.on(0, |p, ctx| p.on_start(ctx));
    s.receive(
        0,
        r(0),
        PaxosMsg::Commit {
            ballot: b0(),
            up_to: 1,
        },
    );
    assert_eq!(
        s[0].executed.len(),
        1,
        "own-regime commit evidence executes"
    );
}

#[test]
fn vouch_gap_requests_leader_fill_and_resumes_acking() {
    // r1 recovered while the leader proposed [0,3) without a majority:
    // nothing there is committed, so the committed-gap jump never fires
    // and, before leader retransmission existed, the cluster deadlocked
    // (no survivor could ever vouch across the hole).
    let mut s = Script::new(vec![bcast(1)]);
    s.on(0, |p, ctx| p.on_recover(&[], ctx));
    s.receive(0, r(0), accept(b0(), 3, vec![cmd(4)], r(0)));
    let fills: Vec<(ReplicaId, u64, u64)> = s[0]
        .sent
        .iter()
        .filter_map(|(to, m)| match m {
            PaxosMsg::CatchUp(req) => Some((*to, req.from, req.below)),
            _ => None,
        })
        .collect();
    assert_eq!(fills, vec![(r(0), 0, 3)], "gap must ask the leader");
    // A second run over the same gap inside the pacing window must not
    // storm another request.
    s.receive(0, r(0), accept(b0(), 4, vec![cmd(5)], r(0)));
    assert_eq!(
        s[0].sent
            .iter()
            .filter(|(_, m)| matches!(m, PaxosMsg::CatchUp(_)))
            .count(),
        1
    );
    // The leader's retransmission closes the gap; the cumulative ack
    // jumps over everything logged contiguously.
    let entries: Vec<SuffixEntry> = (0..3)
        .map(|i| SuffixEntry {
            instance: i,
            ballot: b0(),
            value: Some((cmd(i + 1), r(0))),
        })
        .collect();
    s.receive(0, r(0), runs(b0(), 0, 3, entries));
    assert_eq!(
        last_ack(&s[0].sent),
        Some(5),
        "fill must close the vouch gap"
    );
    // And the whole range commits once a majority vouches.
    s.receive(0, r(0), acked(b0(), 5));
    s.receive(0, r(2), acked(b0(), 5));
    assert_eq!(s.nodes[0].proto.executed(), 5);
}

#[test]
fn leader_serves_fill_from_pending_instances() {
    let mut s = Script::new(vec![bcast(0)]);
    s.on(0, |p, ctx| {
        p.on_client_batch(Batch::new(vec![cmd(1), cmd(2), cmd(3), cmd(4)]), ctx)
    });
    s[0].sent.clear();
    s.receive(0, r(2), catch_up(1, 3));
    let (to, fill) = s[0].sent.last().cloned().expect("leader must answer");
    assert_eq!(to, r(2));
    let PaxosMsg::CatchUpReply {
        promised,
        reply: CatchUpReply::Runs { runs: entries, .. },
    } = fill
    else {
        panic!("expected runs, got {fill:?}");
    };
    assert_eq!(promised, b0());
    let instances: Vec<u64> = entries.iter().map(|e| e.instance).collect();
    assert_eq!(instances, vec![1, 2], "exactly the requested pending range");
    // A deposed leader must not serve runs: its values may be
    // superseded by a repair it has not seen (and it executed nothing
    // it could snapshot).
    s.receive(0, r(1), PaxosMsg::Nack { promised: b(2, 1) });
    s[0].sent.clear();
    s.receive(0, r(2), catch_up(1, 3));
    assert!(s[0].sent.is_empty(), "deposed leader must stay silent");
}

#[test]
fn vouch_gap_below_the_leaders_execution_cursor_gets_a_snapshot() {
    // The leader r0 (position 0) executed instances 0..2 and holds 2..4
    // pending; r1 (position 1) recovered with an empty log. The next run
    // opens a vouch gap from 0, below the leader's execution cursor: the
    // leader no longer holds those runs, so it answers with a snapshot.
    let mut s = Script::new(vec![bcast(0), bcast(1)]);
    commit_one_at_leader(&mut s, 0, 1);
    commit_one_at_leader(&mut s, 0, 2);
    s.on(0, |p, ctx| {
        p.on_client_batch(Batch::new(vec![cmd(3), cmd(4)]), ctx)
    });
    s.on(1, |p, ctx| p.on_recover(&[], ctx));
    s.receive(1, r(0), accept(b0(), 2, vec![cmd(3), cmd(4)], r(0)));
    let asked = s[1].sent.iter().find_map(|(to, m)| match m {
        PaxosMsg::CatchUp(req) => Some((*to, *req)),
        _ => None,
    });
    assert_eq!(asked, Some((r(0), CatchUp { from: 0, below: 2 })));
    s[0].sent.clear();
    s.receive(0, r(1), catch_up(0, 2));
    let (to, reply) = s[0].sent.last().cloned().expect("leader must answer");
    assert_eq!(to, r(1));
    assert!(
        matches!(
            &reply,
            PaxosMsg::CatchUpReply { promised, reply: CatchUpReply::Snapshot(cp) }
                if *promised == b0() && cp.applied == 2
        ),
        "below the leader's cursor: its snapshot, got {reply:?}"
    );
    s[1].sent.clear();
    s.receive(1, r(0), reply);
    assert_eq!(s.nodes[1].proto.executed(), 2);
    assert_eq!(s.applied(1), s.applied(0), "the leader's exact state");
    assert_eq!(
        last_ack(&s[1].sent),
        Some(4),
        "the vouch resumes from the snapshot over the pending run"
    );
}

#[test]
fn client_batches_buffered_during_candidacy_are_proposed_on_victory() {
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock = 600_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(9)), ctx));
    assert!(
        !s[0]
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Forward { .. } | PaxosMsg::Accept { .. })),
        "mid-candidacy batches are held"
    );
    let ballot = b(1, 1);
    s.receive(
        0,
        r(1),
        PaxosMsg::Prepare {
            ballot,
            from_instance: 0,
        },
    );
    let own_promise = s[0]
        .sent
        .iter()
        .rev()
        .find_map(|(_, m)| match m {
            PaxosMsg::Promise { .. } => Some(m.clone()),
            _ => None,
        })
        .unwrap();
    s.receive(0, r(1), own_promise);
    s.receive(
        0,
        r(2),
        PaxosMsg::Promise {
            ballot,
            from_instance: 0,
            committed: 0,
            entries: vec![],
        },
    );
    assert!(s.nodes[0].proto.is_leader());
    let proposed: Vec<u64> = s[0]
        .sent
        .iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::Accept { cmds, .. } => Some(cmds.iter().next().unwrap().id.seq),
            _ => None,
        })
        .collect();
    assert!(
        proposed.contains(&9),
        "buffered batch must be proposed on victory: {proposed:?}"
    );
}

// ----------------------------------------------------------------------
// Local reads: leader lease fast path and quorum-mark fallback
// ----------------------------------------------------------------------

fn read(seq: u64) -> Command {
    Command::read(
        CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
        Bytes::from_static(b"get"),
    )
}

/// Drives one command through commit on a 3-replica bcast leader.
fn commit_one_at_leader(s: &mut Script<MultiPaxos>, i: usize, seq: u64) {
    let next = s.nodes[i].proto.executed();
    s.on(i, |p, ctx| {
        p.on_client_batch(Batch::new(vec![cmd(seq)]), ctx)
    });
    let regime = s.nodes[i].proto.regime;
    s.receive(i, r(1), acked(regime, next + 1));
    s.receive(i, r(2), acked(regime, next + 1));
    assert_eq!(
        s.nodes[i].proto.executed(),
        next + 1,
        "setup: command must commit"
    );
}

#[test]
fn fixed_leader_serves_reads_locally_without_wire_traffic() {
    let mut s = Script::new(vec![bcast(0)]);
    commit_one_at_leader(&mut s, 0, 1);
    s[0].sent.clear();
    s.on(0, |p, ctx| p.on_client_read(read(7), ctx));
    assert_eq!(s[0].replies.len(), 1, "fixed leader: immediate local read");
    assert_eq!(s[0].replies[0].id.seq, 7);
    assert!(
        s[0].sent.is_empty(),
        "a leader-local read must not touch the wire: {:?}",
        s[0].sent
    );
    assert_eq!(s.nodes[0].proto.exec.pending_reads(), 0);
}

#[test]
fn bcast_leader_read_waits_out_its_proposed_tail() {
    // In bcast Paxos a follower can observe commitment — and reply to
    // its client — before the leader's own watermark advances, so the
    // leader's read index is its log top: a read behind an uncommitted
    // proposal waits for that proposal to commit and execute.
    let mut s = Script::new(vec![bcast(0)]);
    commit_one_at_leader(&mut s, 0, 1);
    // Propose another command; not yet acked by a majority.
    s.on(0, |p, ctx| p.on_client_batch(Batch::new(vec![cmd(2)]), ctx));
    s.on(0, |p, ctx| p.on_client_read(read(9), ctx));
    assert!(
        s[0].replies.is_empty(),
        "bcast leader must not serve below its proposed tail"
    );
    s.receive(0, r(1), acked(b0(), 2));
    s.receive(0, r(2), acked(b0(), 2));
    assert_eq!(s.nodes[0].proto.executed(), 2);
    assert_eq!(
        s[0].replies.len(),
        1,
        "read released once the tail committed"
    );
}

#[test]
fn plain_leader_read_serves_at_the_commit_watermark_despite_a_tail() {
    // In plain Paxos only the leader counts 2b: nothing can be client-
    // visible above its commit watermark, so an uncommitted tail does
    // not delay leader reads.
    let mut s = Script::new(vec![MultiPaxos::new(
        r(0),
        Membership::uniform(3),
        r(0),
        PaxosVariant::Plain,
    )]);
    s.on(0, |p, ctx| p.on_client_batch(Batch::new(vec![cmd(1)]), ctx));
    s.receive(0, r(0), acked(b0(), 1)); // looped-back self ack
    s.receive(0, r(1), acked(b0(), 1));
    assert_eq!(
        s.nodes[0].proto.executed(),
        1,
        "setup: first command committed"
    );
    // A second proposal with no majority yet.
    s.on(0, |p, ctx| p.on_client_batch(Batch::new(vec![cmd(2)]), ctx));
    s.on(0, |p, ctx| p.on_client_read(read(9), ctx));
    assert_eq!(
        s[0].replies.len(),
        1,
        "plain leader reads at its commit watermark, tail notwithstanding"
    );
}

#[test]
fn failover_leader_without_regime_evidence_probes_instead_of_serving() {
    let mut s = Script::new(vec![bcast(0).with_failover(lease())]);
    // No Accepted/ReadMark at our regime has arrived: the read lease is
    // unearned and the leader must nack its own fast path.
    s.on(0, |p, ctx| p.on_client_read(read(1), ctx));
    assert!(s[0].replies.is_empty());
    let probes = s[0]
        .sent
        .iter()
        .filter(|(_, m)| matches!(m, PaxosMsg::ReadProbe(_)))
        .count();
    assert_eq!(probes, 2, "lease-uncertain leader falls back to a probe");
    assert_eq!(s.nodes[0].proto.exec.pending_reads(), 1);
}

#[test]
fn failover_leader_with_fresh_majority_evidence_reads_locally() {
    let mut s = Script::new(vec![bcast(0).with_failover(lease())]);
    commit_one_at_leader(&mut s, 0, 1);
    // The two Accepted messages above are regime evidence from r1 and
    // r2, well within timeout/2 of the current clock.
    s[0].sent.clear();
    s.on(0, |p, ctx| p.on_client_read(read(5), ctx));
    assert_eq!(s[0].replies.len(), 1, "leased leader reads locally");
    assert!(s[0].sent.is_empty());
    // Let the lease age past timeout/2: the fast path must close again.
    s[0].clock += lease().timeout_us;
    s.on(0, |p, ctx| p.on_client_read(read(6), ctx));
    assert_eq!(s[0].replies.len(), 1, "stale lease: no local serve");
    assert!(s[0]
        .sent
        .iter()
        .any(|(_, m)| matches!(m, PaxosMsg::ReadProbe(_))));
}

#[test]
fn follower_quorum_read_parks_on_the_max_mark_until_executed() {
    let mut s = Script::new(vec![bcast(1)]);
    // The follower logs instance 0 (not yet known committed).
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1)], r(0)));
    s[0].sent.clear();
    s.on(0, |p, ctx| p.on_client_read(read(3), ctx));
    assert!(s[0].replies.is_empty(), "follower never serves eagerly");
    assert_eq!(
        s[0].sent
            .iter()
            .filter(|(_, m)| matches!(m, PaxosMsg::ReadProbe(_)))
            .count(),
        2,
        "probe goes to both peers"
    );
    // One peer answers: with self that is a majority of 3. Its mark (1)
    // matches our own log top, so the read parks at instance mark 1.
    s.receive(0, r(0), PaxosMsg::ReadMark(ReadReply { seq: 1, mark: 1 }));
    assert_eq!(
        s.nodes[0].proto.exec.pending_reads(),
        1,
        "parked: instance 0 not yet executed"
    );
    assert!(s[0].replies.is_empty());
    // Majority acks arrive, instance 0 executes, the read releases.
    s.receive(0, r(0), acked(b0(), 1));
    s.receive(0, r(2), acked(b0(), 1));
    assert_eq!(s.nodes[0].proto.executed(), 1);
    assert_eq!(s[0].replies.len(), 1);
    assert_eq!(s.nodes[0].proto.exec.pending_reads(), 0);
}

#[test]
fn any_replica_answers_read_probes_with_its_log_top() {
    let mut s = Script::new(vec![bcast(2)]);
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1), cmd(2)], r(0)));
    s[0].sent.clear();
    s.receive(0, r(1), PaxosMsg::ReadProbe(ReadRequest { seq: 42 }));
    match &s[0].sent[..] {
        [(to, PaxosMsg::ReadMark(reply))] => {
            assert_eq!(*to, r(1));
            assert_eq!(reply.seq, 42);
            assert_eq!(reply.mark, 2, "mark covers the whole accepted log");
        }
        other => panic!("expected one ReadMark, got {other:?}"),
    }
}

#[test]
fn read_falls_back_to_replication_without_sm_access() {
    let mut s = Script::new(vec![bcast(0)]);
    s.nodes[0].sm = Box::new(ApplyOnly::default());
    s.on(0, |p, ctx| p.on_client_read(read(4), ctx));
    assert!(s[0].replies.is_empty());
    assert!(
        s[0].sent
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Accept { .. })),
        "unserveable read must be replicated as an ordinary command"
    );
}

#[test]
fn new_leader_reads_wait_out_the_repaired_suffix() {
    // r1 wins an election inheriting an instance that may already have
    // committed — and replied — under the old regime. Its local reads
    // must not be served below the repaired suffix top.
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    s[0].clock = 1_000_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx)); // lease expired at start: campaign
    assert!(s.nodes[0].proto.election.is_some());
    let ballot = s.nodes[0].proto.promised;
    // Loop back the self-addressed Prepare, then the resulting Promise.
    let own_prepare = s[0]
        .sent
        .iter()
        .find_map(|(to, m)| match m {
            PaxosMsg::Prepare { .. } if *to == r(1) => Some(m.clone()),
            _ => None,
        })
        .expect("self prepare");
    s.receive(0, r(1), own_prepare);
    let own_promise = s[0]
        .sent
        .iter()
        .rev()
        .find_map(|(to, m)| match m {
            PaxosMsg::Promise { .. } if *to == r(1) => Some(m.clone()),
            _ => None,
        })
        .expect("self promise");
    s.receive(0, r(1), own_promise);
    s.receive(
        0,
        r(2),
        PaxosMsg::Promise {
            ballot,
            from_instance: 0,
            committed: 0,
            entries: vec![SuffixEntry {
                instance: 0,
                ballot: b0(),
                value: Some((cmd(1), r(0))),
            }],
        },
    );
    assert!(s.nodes[0].proto.is_leader());
    // Both peers acked the repair run at the new ballot: the leader's
    // read lease is fresh. A read now must still wait for the inherited
    // instance to commit and execute.
    s.receive(0, r(2), acked(ballot, 1));
    s.receive(0, r(0), acked(ballot, 0));
    let executed_before = s.nodes[0].proto.executed();
    if executed_before == 0 {
        s.on(0, |p, ctx| p.on_client_read(read(8), ctx));
        assert!(
            s[0].replies.is_empty(),
            "read served below the repaired suffix top"
        );
    }
    // Our own vouch (r0's ack was 0, r2 acked 1; our logged_next is 1)
    // plus r2 commits instance 0; the read releases.
    s.receive(0, r(0), acked(ballot, 1));
    assert_eq!(s.nodes[0].proto.executed(), 1);
    s.on(0, |p, ctx| p.on_client_read(read(9), ctx));
    assert!(!s[0].replies.is_empty());
}

#[test]
fn fresh_lease_acceptor_refuses_to_promise_a_new_ballot() {
    // Leader stickiness: a follower that heard its leader within the
    // suspicion timeout must not grant promises — otherwise one
    // isolated replica could depose a healthy leader through fresh
    // followers and race the leader's read lease.
    let mut s = Script::new(vec![bcast(2).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    // Current-regime leader traffic renews the lease.
    s.receive(0, r(0), accept(b0(), 0, vec![cmd(1)], r(0)));
    s[0].sent.clear();
    s.receive(
        0,
        r(1),
        PaxosMsg::Prepare {
            ballot: b(1, 1),
            from_instance: 0,
        },
    );
    assert!(
        !s[0]
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Promise { .. })),
        "fresh-leased acceptor granted a promise: {:?}",
        s[0].sent
    );
    // Once the lease expires, the same Prepare is granted.
    s[0].clock += lease().timeout_us + 1;
    s.receive(
        0,
        r(1),
        PaxosMsg::Prepare {
            ballot: b(1, 1),
            from_instance: 0,
        },
    );
    assert!(
        s[0].sent
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Promise { .. })),
        "expired-lease acceptor must grant"
    );
}

#[test]
fn heartbeat_draws_a_cumulative_ack_as_lease_evidence() {
    let mut s = Script::new(vec![bcast(1).with_failover(lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s.receive(
        0,
        r(0),
        PaxosMsg::Heartbeat {
            ballot: b0(),
            committed: 0,
        },
    );
    let acks: Vec<_> = s[0]
        .sent
        .iter()
        .filter(|(to, m)| *to == r(0) && matches!(m, PaxosMsg::Accepted { .. }))
        .collect();
    assert_eq!(acks.len(), 1, "heartbeat must be acked to the leader");
}

// ----------------------------------------------------------------------
// Pre-vote (opt-in): probe electability before burning a ballot
// ----------------------------------------------------------------------

fn prevote_lease() -> LeaseConfig {
    lease().with_pre_vote()
}

fn prevotes(sent: &[(ReplicaId, PaxosMsg)]) -> Vec<Ballot> {
    sent.iter()
        .filter_map(|(_, m)| match m {
            PaxosMsg::PreVote { ballot } => Some(*ballot),
            _ => None,
        })
        .collect()
}

#[test]
fn prevote_expiry_probes_instead_of_preparing() {
    let mut s = Script::new(vec![bcast(1).with_failover(prevote_lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock = 600_000; // past the staggered timeout for index 1
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    // A probe at the prospective round goes to everyone, self included —
    // but no Prepare, no durable promise, no round burned.
    assert_eq!(prevotes(&s[0].sent), vec![b(1, 1); 3]);
    assert!(
        prepares(&s[0].sent).is_empty(),
        "probe must precede any Prepare"
    );
    assert!(s.nodes[0].proto.prevote.is_some() && s.nodes[0].proto.election.is_none());
    assert_eq!(
        s.nodes[0].proto.promised,
        b0(),
        "a probe must not move the promise"
    );
    assert_eq!(
        s.nodes[0].proto.max_round_seen, 0,
        "a probe must not burn a round"
    );
    assert!(
        !s.nodes[0]
            .log
            .iter()
            .any(|rec| matches!(rec, PaxosLogRec::Promised(_))),
        "a probe must not write the durable log"
    );
}

#[test]
fn prevote_answer_is_pure() {
    // A peer whose lease on the leader is fresh refuses the probe
    // silently; one whose lease lapsed grants it. Neither answer
    // mutates anything — promise, lease, log, or round counter.
    let mut s = Script::new(vec![bcast(2).with_failover(prevote_lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s.receive(0, r(1), PaxosMsg::PreVote { ballot: b(1, 1) });
    assert!(
        s[0].sent.is_empty(),
        "fresh-lease peer must refuse the probe silently"
    );
    s[0].clock += lease().timeout_us + 1;
    s.receive(0, r(1), PaxosMsg::PreVote { ballot: b(1, 1) });
    assert_eq!(
        s[0].sent,
        vec![(r(1), PaxosMsg::PreVoteGrant { ballot: b(1, 1) })]
    );
    assert_eq!(
        s.nodes[0].proto.promised,
        b0(),
        "granting a probe is not promising"
    );
    assert_eq!(s.nodes[0].proto.max_round_seen, 0);
    assert!(s.nodes[0].log.is_empty(), "granting a probe must not log");
    // The grant did not renew the grantor's lease either: unlike a real
    // promise there is no election window to protect, so its own (pre-)
    // candidacy timing is untouched. A real Prepare at the same ballot
    // is still granted afterwards.
    s.receive(
        0,
        r(1),
        PaxosMsg::Prepare {
            ballot: b(1, 1),
            from_instance: 0,
        },
    );
    assert!(s[0]
        .sent
        .iter()
        .any(|(_, m)| matches!(m, PaxosMsg::Promise { .. })));
}

#[test]
fn stale_prevote_draws_a_nack() {
    let mut s = Script::new(vec![bcast(2).with_failover(prevote_lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock += lease().timeout_us + 1;
    s.receive(
        0,
        r(1),
        PaxosMsg::Prepare {
            ballot: b(3, 1),
            from_instance: 0,
        },
    );
    assert_eq!(s.nodes[0].proto.promised, b(3, 1));
    s[0].sent.clear();
    // A probe below the promise teaches the prober the round to beat.
    s.receive(0, r(0), PaxosMsg::PreVote { ballot: b(1, 0) });
    assert_eq!(
        s[0].sent,
        vec![(r(0), PaxosMsg::Nack { promised: b(3, 1) })]
    );
}

#[test]
fn prevote_majority_escalates_to_a_real_election() {
    let mut s = Script::new(vec![bcast(1).with_failover(prevote_lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock = 600_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    assert_eq!(prevotes(&s[0].sent), vec![b(1, 1); 3]);
    // Self-addressed probe loops back (own lease expired → grant)...
    s.receive(0, r(1), PaxosMsg::PreVote { ballot: b(1, 1) });
    s.receive(0, r(1), PaxosMsg::PreVoteGrant { ballot: b(1, 1) });
    assert!(
        s.nodes[0].proto.prevote.is_some(),
        "one grant is not a majority"
    );
    assert!(prepares(&s[0].sent).is_empty());
    // ...and a second grant makes the majority: the real election starts,
    // burning the round only now.
    s.receive(0, r(2), PaxosMsg::PreVoteGrant { ballot: b(1, 1) });
    assert!(s.nodes[0].proto.prevote.is_none() && s.nodes[0].proto.election.is_some());
    assert_eq!(prepares(&s[0].sent), vec![b(1, 1); 3]);
    assert_eq!(
        s.nodes[0].proto.promised,
        b(1, 1),
        "the election is durably promised"
    );
}

#[test]
fn duplicate_grants_do_not_make_a_majority() {
    let mut s = Script::new(vec![bcast(1).with_failover(prevote_lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock = 600_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    s.receive(0, r(2), PaxosMsg::PreVoteGrant { ballot: b(1, 1) });
    s.receive(0, r(2), PaxosMsg::PreVoteGrant { ballot: b(1, 1) });
    assert!(
        s.nodes[0].proto.prevote.is_some(),
        "a re-delivered grant counts once"
    );
    assert!(prepares(&s[0].sent).is_empty());
}

#[test]
fn isolated_prevoter_burns_no_ballots_and_rejoins_quietly() {
    // The disruption scenario pre-vote exists for: a replica cut off
    // behind a partition suspects the leader and campaigns into the
    // void. With classic elections every retry durably self-promises a
    // higher round, so on heal its inflated promise Nacks the healthy
    // leader's traffic and deposes it. With pre-vote the castaway only
    // ever probes: heal finds it exactly where it left — same promise,
    // same regime — and the leader's next heartbeat is acked, not
    // Nacked.
    let mut s = Script::new(vec![bcast(2).with_failover(prevote_lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    // Partitioned: many retry periods pass, every probe unanswered.
    for tick in 1..=20u64 {
        s[0].clock = 600_000 + tick * lease().election_retry_us();
        s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    }
    assert!(
        prevotes(&s[0].sent).len() >= 3,
        "castaway must keep re-probing"
    );
    assert!(
        prepares(&s[0].sent).is_empty(),
        "castaway must never Prepare"
    );
    assert_eq!(
        s.nodes[0].proto.promised,
        b0(),
        "no self-promise accumulated"
    );
    assert_eq!(
        s.nodes[0].proto.max_round_seen, 0,
        "no rounds burned while isolated"
    );
    // Heal: the leader's heartbeat arrives. No Nack — the castaway is
    // still a clean follower of the original regime.
    s[0].sent.clear();
    s.receive(
        0,
        r(0),
        PaxosMsg::Heartbeat {
            ballot: b0(),
            committed: 0,
        },
    );
    assert!(
        !s[0]
            .sent
            .iter()
            .any(|(_, m)| matches!(m, PaxosMsg::Nack { .. })),
        "healed castaway must not depose the leader"
    );
    assert!(
        s[0].sent
            .iter()
            .any(|(to, m)| *to == r(0) && matches!(m, PaxosMsg::Accepted { .. })),
        "heartbeat must be acked as usual"
    );
    // The heartbeat renewed its lease; the next tick stands the probe
    // down instead of escalating.
    s[0].clock += 1_000;
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    assert!(s.nodes[0].proto.prevote.is_none() && s.nodes[0].proto.election.is_none());
}

#[test]
fn prevote_stands_down_when_outbid_by_a_real_candidacy() {
    let mut s = Script::new(vec![bcast(2).with_failover(prevote_lease())]);
    s.on(0, |p, ctx| p.on_start(ctx));
    s[0].clock = 800_000; // past the index-2 stagger
    s.on(0, |p, ctx| p.on_timer(TOKEN_LEASE, ctx));
    assert!(s.nodes[0].proto.prevote.is_some());
    // A real candidate at a higher ballot solicits us: grant and defer.
    s.receive(
        0,
        r(1),
        PaxosMsg::Prepare {
            ballot: b(2, 1),
            from_instance: 0,
        },
    );
    assert!(
        s.nodes[0].proto.prevote.is_none(),
        "a real candidacy trumps our probe"
    );
    assert_eq!(s.nodes[0].proto.promised, b(2, 1));
}
