//! Checkpointing (Section V-B): recovery restores the latest snapshot and
//! replays only the log suffix, instead of re-executing everything.

use crate::{ClockRsm, ClockRsmConfig, LogRec, RsmMsg};
use bytes::Bytes;
use rsm_core::batch::Batch;
use rsm_core::checkpoint::{CatchUpReply, Checkpoint, CheckpointPolicy};
use rsm_core::command::{Command, CommandId};
use rsm_core::config::{Epoch, Membership};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::node::{ApplyOnly, Script};
use rsm_core::protocol::Protocol;
use rsm_core::time::Timestamp;

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

fn cmd(seq: u64) -> Command {
    Command::new(
        CommandId::new(ClientId::new(r(0), 0), seq),
        Bytes::from_static(b"x"),
    )
}

fn replica(policy: CheckpointPolicy) -> ClockRsm {
    ClockRsm::new(
        r(2),
        Membership::uniform(3),
        ClockRsmConfig::default()
            .with_delta_us(None)
            .with_checkpoint(policy),
    )
}

/// One replica (r2 at position 0) whose clock starts at 1 ms.
fn script(p: ClockRsm) -> Script<ClockRsm> {
    let mut s = Script::new(vec![p]);
    s[0].clock = 1_000;
    s
}

/// Drives `count` full commits through a replica by hand.
fn commit_n(s: &mut Script<ClockRsm>, count: u64) {
    commit_seqs(s, 1..=count);
}

/// Drives the commits of commands `seqs` through a replica by hand.
fn commit_seqs(s: &mut Script<ClockRsm>, seqs: std::ops::RangeInclusive<u64>) {
    for seq in seqs {
        let ts = Timestamp::new(10_000 * seq, r(0));
        let prepare = RsmMsg::PrepareBatch {
            epoch: Epoch::ZERO,
            ts,
            origin: r(0),
            cmds: Batch::single(cmd(seq)),
        };
        s.on(0, |p, ctx| p.on_message(r(0), prepare, ctx));
        for k in 0..3u16 {
            let ok = RsmMsg::PrepareOk {
                epoch: Epoch::ZERO,
                up_to: ts,
                clock_ts: Timestamp::new(ts.micros() + 10 + k as u64, r(k)),
            };
            s.on(0, |p, ctx| p.on_message(r(k), ok, ctx));
        }
    }
}

/// The replica's logged checkpoints, oldest first.
fn checkpoints(s: &Script<ClockRsm>) -> Vec<&Checkpoint<Timestamp>> {
    let log = s.nodes[0].log.iter();
    log.filter_map(|l| match l {
        LogRec::Checkpoint(cp) => Some(cp),
        _ => None,
    })
    .collect()
}

#[test]
fn checkpoints_are_written_at_the_interval() {
    let mut s = script(replica(CheckpointPolicy::every(3)));
    let head = |s: &Script<ClockRsm>| {
        checkpoints(s)
            .iter()
            .map(|cp| cp.applied.micros())
            .collect::<Vec<_>>()
    };
    commit_n(&mut s, 2);
    assert!(
        head(&s).is_empty(),
        "2 commits at interval 3: no checkpoint"
    );
    commit_seqs(&mut s, 3..=3);
    assert_eq!(head(&s), [30_000], "the third commit checkpoints");
    commit_seqs(&mut s, 4..=7);
    assert_eq!(
        head(&s),
        [60_000],
        "the sixth replaces it at the log's head"
    );
    assert!(matches!(&s.nodes[0].log[0], LogRec::Checkpoint(_)));
    assert_eq!(checkpoints(&s)[0].snapshot.len(), 6 * 8);
}

#[test]
fn compaction_truncates_the_log_below_the_watermark() {
    let policy = CheckpointPolicy::every(3);
    let mut s = script(replica(policy));
    commit_n(&mut s, 7);
    // The last compaction ran at commit 6: the log holds that checkpoint
    // plus only the records above its watermark (commit 7's pair).
    let log = &s.nodes[0].log;
    let below_watermark = log
        .iter()
        .filter_map(|l| match l {
            LogRec::PrepareBatch { head, .. } => Some(*head),
            LogRec::Commit { ts } => Some(*ts),
            _ => None,
        })
        .filter(|ts| ts.micros() <= 60_000)
        .count();
    assert_eq!(below_watermark, 0, "records below the watermark survive");
    assert!(
        log.len() <= 4,
        "log must stay bounded, got {} records",
        log.len()
    );
    // Recovery from the compacted log reproduces the full state.
    s.restart(0, replica(policy));
    assert_eq!(s.applied(0), vec![1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(s.nodes[0].proto.last_committed.micros(), 70_000);
}

#[test]
fn recovery_restores_snapshot_and_replays_only_suffix() {
    let mut s = script(replica(CheckpointPolicy::every(3)));
    commit_n(&mut s, 7);
    s.restart(0, replica(CheckpointPolicy::every(3)));

    // The snapshot restored commands 1..=6; only command 7 was replayed.
    assert_eq!(s.applied(0), vec![1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(s[0].executed.len(), 1, "only the suffix is re-executed");
    assert_eq!(s[0].executed[0].cmd.id.seq, 7);
    assert_eq!(s.nodes[0].proto.last_committed.micros(), 70_000);
}

/// Recovery replay feeds the checkpoint trigger like live execution: a
/// replica that crashes every 2 commits — more often than its 5-commit
/// interval — still checkpoints, instead of restarting the count from
/// zero on every recovery and replaying an ever-growing log.
#[test]
fn crashing_more_often_than_the_interval_still_checkpoints() {
    let mut s = script(replica(CheckpointPolicy::every(5)));
    for round in 0..4u64 {
        // A crash loses the replica and its state machine; the log stays.
        s.restart(0, replica(CheckpointPolicy::every(5)));
        commit_seqs(&mut s, 2 * round + 1..=2 * round + 2);
    }
    assert_eq!(s.applied(0), (1..=8).collect::<Vec<u64>>());
    let checkpoints: Vec<u64> = checkpoints(&s)
        .iter()
        .map(|cp| cp.applied.micros())
        .collect();
    assert_eq!(
        checkpoints,
        vec![50_000],
        "4 replayed + 1 live commit reach the interval in the third life"
    );
}

/// The log holds nothing below its head checkpoint, so a state machine
/// that cannot restore it cannot recover: the replica refuses, by name,
/// instead of replaying the suffix onto an empty state machine.
#[test]
#[should_panic(expected = "cannot restore the checkpoint at the head of its own log")]
fn a_checkpoint_the_state_machine_cannot_restore_refuses_recovery() {
    let mut s = script(replica(CheckpointPolicy::every(3)));
    s.nodes[0].sm = Box::new(ApplyOnly::default());
    commit_n(&mut s, 7);
    assert_eq!(checkpoints(&s).len(), 1, "the log starts with a checkpoint");
    s.restart(0, replica(CheckpointPolicy::every(3)));
}

#[test]
fn no_checkpoints_without_configuration() {
    let mut s = script(replica(CheckpointPolicy::DISABLED));
    commit_n(&mut s, 10);
    assert!(checkpoints(&s).is_empty(), "checkpointing must be opt-in");
}

/// A run cut mid-way by acks, with a checkpoint landing inside it: a
/// replica that crashes there restores the checkpoint from its compacted
/// log and recovers the uncrashed replica's state, commit count and
/// order keys.
#[test]
fn crash_after_a_checkpoint_inside_a_partly_executed_run() {
    let policy = CheckpointPolicy::every(3);
    let mut s = script(replica(policy));
    let head = Timestamp::new(10_000, r(0));
    let prepare = RsmMsg::PrepareBatch {
        epoch: Epoch::ZERO,
        ts: head,
        origin: r(0),
        cmds: Batch::new((1..=8).map(cmd).collect()),
    };
    s.on(0, |p, ctx| p.on_message(r(0), prepare, ctx));
    // Acks cover five of the eight commands; every clock passes all.
    for k in 0..3u16 {
        let ok = RsmMsg::PrepareOk {
            epoch: Epoch::ZERO,
            up_to: Timestamp::new(10_004, r(0)),
            clock_ts: Timestamp::new(20_000 + k as u64, r(k)),
        };
        s.on(0, |p, ctx| p.on_message(r(k), ok, ctx));
    }
    let applied = s.applied(0);
    assert_eq!(applied, vec![1, 2, 3, 4, 5]);
    let p = &s.nodes[0].proto;
    let pending: usize = p
        .pending
        .iter()
        .flatten()
        .map(|run| run.cmds.len() - run.next)
        .sum();
    assert_eq!(pending, 3, "the run is cut after five");
    let (committed, last) = (p.committed_count, p.last_committed);
    let checkpoint_at = checkpoints(&s).first().map(|cp| cp.applied.micros());
    assert_eq!(checkpoint_at, Some(10_002), "the checkpoint is mid-run");
    let keys =
        |s: &Script<ClockRsm>| -> Vec<u64> { s[0].executed.iter().map(|c| c.order_hint).collect() };
    let live_keys = keys(&s);

    s.restart(0, replica(policy));
    assert_eq!(s.applied(0), applied);
    let p = &s.nodes[0].proto;
    assert_eq!(p.committed_count + 3, committed, "three were restored");
    assert_eq!(p.last_committed, last);
    assert_eq!(keys(&s), live_keys[3..]);
}

/// A compacted log cannot answer a SUSPEND from below its checkpoint:
/// the responder sends a snapshot of its commit point instead, and
/// answers from the log once asked from at or above the checkpoint. The
/// requester installs the snapshot, restarts its log at it, and asks
/// again from its new commit point.
#[test]
fn a_suspend_below_a_compacted_log_is_answered_with_a_snapshot() {
    let mut s = script(replica(CheckpointPolicy::every(4)));
    commit_n(&mut s, 10);
    assert!(matches!(&s.nodes[0].log[0], LogRec::Checkpoint(cp) if cp.applied.micros() == 80_000));
    let suspend = |cts| RsmMsg::Suspend {
        epoch: Epoch(1),
        cts: Timestamp::new(cts, r(0)),
    };
    s.on(0, |p, ctx| p.on_message(r(0), suspend(20_000), ctx));
    let reply = match s[0].sent.pop() {
        Some((to, RsmMsg::CatchUpReply(CatchUpReply::Snapshot(cp)))) if to == r(0) => cp,
        other => panic!("expected a snapshot, got {other:?}"),
    };
    assert_eq!(reply.applied.micros(), 100_000);
    s.on(0, |p, ctx| p.on_message(r(0), suspend(90_000), ctx));
    match s[0].sent.pop() {
        Some((_, RsmMsg::SuspendOk { cmds, .. })) => {
            let seqs: Vec<u64> = cmds.iter().map(|lc| lc.cmd.id.seq).collect();
            assert_eq!(seqs, [10], "the log answers from its checkpoint up");
        }
        other => panic!("expected SUSPENDOK, got {other:?}"),
    }

    // The requester is collecting from commit point zero.
    let cfg = ClockRsmConfig::default().with_delta_us(None);
    let mut q = script(ClockRsm::new(r(0), Membership::uniform(3), cfg));
    let config = vec![r(0), r(1), r(2)];
    q.on(0, |p, ctx| p.trigger_reconfigure(config, ctx));
    q[0].sent.clear();
    q.on(0, |p, ctx| p.on_message(r(2), reply.into(), ctx));
    assert_eq!(q.applied(0), (1..=10).collect::<Vec<u64>>());
    assert!(q.nodes[0].proto.frozen);
    assert!(
        matches!(&q.nodes[0].log[..], [LogRec::Checkpoint(cp)] if cp.applied.micros() == 100_000)
    );
    let resent: Vec<Timestamp> = (q[0].sent.iter())
        .filter_map(|(_, m)| match m {
            RsmMsg::Suspend { cts, .. } => Some(*cts),
            _ => None,
        })
        .collect();
    assert_eq!(resent, [Timestamp::new(100_000, r(0)); 3]);
}
