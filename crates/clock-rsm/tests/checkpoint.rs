//! Checkpointing (Section V-B): recovery restores the latest snapshot and
//! replays only the log suffix, instead of re-executing everything.

use bytes::Bytes;
use clock_rsm::{ClockRsm, ClockRsmConfig, LogRec, RsmMsg};
use rsm_core::batch::Batch;
use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::command::{Command, CommandId, Committed};
use rsm_core::config::{Epoch, Membership};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::time::{Micros, Timestamp};

/// A context whose "state machine" is an append-only list of executed
/// sequence numbers, with snapshot/restore support.
struct CtxWithSm {
    clock: Micros,
    log: Vec<LogRec>,
    executed: Vec<u64>,
    commits: Vec<Committed>,
    support_snapshots: bool,
}

impl CtxWithSm {
    fn new(support_snapshots: bool) -> Self {
        CtxWithSm {
            clock: 1_000,
            log: Vec::new(),
            executed: Vec::new(),
            commits: Vec::new(),
            support_snapshots,
        }
    }
}

impl Context<ClockRsm> for CtxWithSm {
    fn clock(&mut self) -> Micros {
        self.clock += 1;
        self.clock
    }
    fn send(&mut self, _to: ReplicaId, _msg: RsmMsg) {}
    fn log_append(&mut self, rec: LogRec) {
        self.log.push(rec);
    }
    fn log_rewrite(&mut self, recs: Vec<LogRec>) {
        self.log = recs;
    }
    fn commit(&mut self, c: Committed) -> Bytes {
        let result = c.cmd.payload.clone();
        self.executed.push(c.cmd.id.seq);
        self.commits.push(c);
        result
    }
    fn set_timer(&mut self, _after: Micros, _token: TimerToken) {}
    fn sm_snapshot(&mut self) -> Option<Bytes> {
        if !self.support_snapshots {
            return None;
        }
        let mut buf = Vec::new();
        for s in &self.executed {
            buf.extend_from_slice(&s.to_be_bytes());
        }
        Some(Bytes::from(buf))
    }
    fn sm_install(&mut self, snapshot: Bytes) -> bool {
        if !self.support_snapshots {
            return false;
        }
        self.executed = snapshot
            .chunks(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("8-byte chunks")))
            .collect();
        true
    }
}

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

fn cmd(seq: u64) -> Command {
    Command::new(
        CommandId::new(ClientId::new(r(0), 0), seq),
        Bytes::from_static(b"x"),
    )
}

fn replica(checkpoint_every: Option<u64>) -> ClockRsm {
    ClockRsm::new(
        r(2),
        Membership::uniform(3),
        ClockRsmConfig::default()
            .with_delta_us(None)
            .with_checkpoint_every(checkpoint_every),
    )
}

fn replica_with(policy: CheckpointPolicy) -> ClockRsm {
    ClockRsm::new(
        r(2),
        Membership::uniform(3),
        ClockRsmConfig::default()
            .with_delta_us(None)
            .with_checkpoint(policy),
    )
}

/// Drives `count` full commits through a replica by hand.
fn commit_n(p: &mut ClockRsm, ctx: &mut CtxWithSm, count: u64) {
    commit_seqs(p, ctx, 1..=count);
}

/// Drives the commits of commands `seqs` through a replica by hand.
fn commit_seqs(p: &mut ClockRsm, ctx: &mut CtxWithSm, seqs: std::ops::RangeInclusive<u64>) {
    for seq in seqs {
        let ts = Timestamp::new(10_000 * seq, r(0));
        p.on_message(
            r(0),
            RsmMsg::PrepareBatch {
                epoch: Epoch::ZERO,
                ts,
                origin: r(0),
                cmds: Batch::single(cmd(seq)),
            },
            ctx,
        );
        for k in 0..3u16 {
            p.on_message(
                r(k),
                RsmMsg::PrepareOk {
                    epoch: Epoch::ZERO,
                    up_to: ts,
                    clock_ts: Timestamp::new(ts.micros() + 10 + k as u64, r(k)),
                },
                ctx,
            );
        }
    }
}

#[test]
fn checkpoints_are_written_at_the_interval() {
    let mut p = replica(Some(3));
    let mut ctx = CtxWithSm::new(true);
    commit_n(&mut p, &mut ctx, 7);
    let checkpoints: Vec<&LogRec> = ctx
        .log
        .iter()
        .filter(|l| matches!(l, LogRec::Checkpoint { .. }))
        .collect();
    assert_eq!(
        checkpoints.len(),
        2,
        "7 commits at interval 3 -> 2 checkpoints"
    );
    match checkpoints[1] {
        LogRec::Checkpoint(cp) => {
            assert_eq!(
                cp.applied.micros(),
                60_000,
                "second checkpoint covers commit 6"
            );
            assert_eq!(cp.snapshot.len(), 6 * 8);
        }
        _ => unreachable!(),
    }
}

#[test]
fn byte_budget_triggers_checkpoints_before_the_count_interval() {
    // 1-byte commands, a 2-byte budget and a distant count interval: the
    // byte trigger must fire every two commits.
    let mut p = replica_with(CheckpointPolicy::every(1_000_000).with_every_bytes(Some(2)));
    let mut ctx = CtxWithSm::new(true);
    commit_n(&mut p, &mut ctx, 6);
    let checkpoints = ctx
        .log
        .iter()
        .filter(|l| matches!(l, LogRec::Checkpoint(_)))
        .count();
    assert_eq!(checkpoints, 3, "6 one-byte commits over a 2-byte budget");
}

#[test]
fn compaction_truncates_the_log_below_the_watermark() {
    let mut p = replica_with(CheckpointPolicy::every(3).with_compaction(true));
    let mut ctx = CtxWithSm::new(true);
    commit_n(&mut p, &mut ctx, 7);
    // The last compaction ran at commit 6: the log holds that checkpoint
    // plus only the records above its watermark (commit 7's pair).
    let below_watermark = ctx
        .log
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
        ctx.log.len() <= 4,
        "log must stay bounded, got {} records",
        ctx.log.len()
    );
    // Recovery from the compacted log reproduces the full state.
    let mut p2 = replica_with(CheckpointPolicy::every(3).with_compaction(true));
    let mut ctx2 = CtxWithSm::new(true);
    p2.on_recover(&ctx.log.clone(), &mut ctx2);
    assert_eq!(ctx2.executed, vec![1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(p2.last_committed_ts().micros(), 70_000);
}

#[test]
fn recovery_restores_snapshot_and_replays_only_suffix() {
    let mut p = replica(Some(3));
    let mut ctx = CtxWithSm::new(true);
    commit_n(&mut p, &mut ctx, 7);
    let log = ctx.log.clone();

    // Fresh replica + fresh context: recover from the log.
    let mut p2 = replica(Some(3));
    let mut ctx2 = CtxWithSm::new(true);
    p2.on_recover(&log, &mut ctx2);

    // The snapshot restored commands 1..=6; only command 7 was replayed.
    assert_eq!(ctx2.executed, vec![1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(ctx2.commits.len(), 1, "only the suffix is re-executed");
    assert_eq!(ctx2.commits[0].cmd.id.seq, 7);
    assert_eq!(p2.last_committed_ts().micros(), 70_000);
}

/// Recovery replay feeds the checkpoint trigger like live execution: a
/// replica that crashes every 2 commits — more often than its 5-commit
/// interval — still checkpoints, instead of restarting the count from
/// zero on every recovery and replaying an ever-growing log.
#[test]
fn crashing_more_often_than_the_interval_still_checkpoints() {
    let mut ctx = CtxWithSm::new(true);
    for round in 0..4u64 {
        // A crash loses the replica and its state machine; the log stays.
        let mut p = replica(Some(5));
        ctx.executed.clear();
        p.on_recover(&ctx.log.clone(), &mut ctx);
        commit_seqs(&mut p, &mut ctx, 2 * round + 1..=2 * round + 2);
    }
    assert_eq!(ctx.executed, (1..=8).collect::<Vec<u64>>());
    let checkpoints: Vec<u64> = ctx
        .log
        .iter()
        .filter_map(|l| match l {
            LogRec::Checkpoint(cp) => Some(cp.applied.micros()),
            _ => None,
        })
        .collect();
    assert_eq!(
        checkpoints,
        vec![50_000],
        "4 replayed + 1 live commit reach the interval in the third life"
    );
}

#[test]
fn recovery_without_snapshot_support_replays_everything() {
    let mut p = replica(Some(3));
    let mut ctx = CtxWithSm::new(true);
    commit_n(&mut p, &mut ctx, 7);
    let log = ctx.log.clone();

    // The recovering driver cannot restore snapshots: full replay.
    let mut p2 = replica(Some(3));
    let mut ctx2 = CtxWithSm::new(false);
    p2.on_recover(&log, &mut ctx2);
    assert_eq!(ctx2.executed, vec![1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(ctx2.commits.len(), 7);
}

#[test]
fn no_checkpoints_without_configuration() {
    let mut p = replica(None);
    let mut ctx = CtxWithSm::new(true);
    commit_n(&mut p, &mut ctx, 10);
    assert!(
        !ctx.log
            .iter()
            .any(|l| matches!(l, LogRec::Checkpoint { .. })),
        "checkpointing must be opt-in"
    );
}

#[test]
fn snapshotless_driver_never_receives_checkpoint_records() {
    let mut p = replica(Some(2));
    let mut ctx = CtxWithSm::new(false);
    commit_n(&mut p, &mut ctx, 6);
    assert!(
        !ctx.log
            .iter()
            .any(|l| matches!(l, LogRec::Checkpoint { .. })),
        "no snapshots -> no checkpoint records"
    );
}

/// A run cut mid-way by acks, with a checkpoint landing inside it: a
/// replica that crashes there recovers the uncrashed replica's state,
/// commit count and order keys, whether it restores the checkpoint (from
/// a compacted log or not) or replays the whole log.
#[test]
fn crash_after_a_checkpoint_inside_a_partly_executed_run() {
    for (compact, snapshots) in [(false, true), (true, true), (false, false)] {
        let policy = CheckpointPolicy::every(3).with_compaction(compact);
        let mut p = replica_with(policy);
        let mut ctx = CtxWithSm::new(true);
        let head = Timestamp::new(10_000, r(0));
        p.on_message(
            r(0),
            RsmMsg::PrepareBatch {
                epoch: Epoch::ZERO,
                ts: head,
                origin: r(0),
                cmds: Batch::new((1..=8).map(cmd).collect()),
            },
            &mut ctx,
        );
        // Acks cover five of the eight commands; every clock passes all.
        for k in 0..3u16 {
            p.on_message(
                r(k),
                RsmMsg::PrepareOk {
                    epoch: Epoch::ZERO,
                    up_to: Timestamp::new(10_004, r(0)),
                    clock_ts: Timestamp::new(20_000 + k as u64, r(k)),
                },
                &mut ctx,
            );
        }
        assert_eq!(ctx.executed, vec![1, 2, 3, 4, 5]);
        assert_eq!(p.pending_count(), 3, "the run is cut after five");
        let checkpoint_at = ctx.log.iter().find_map(|l| match l {
            LogRec::Checkpoint(cp) => Some(cp.applied.micros()),
            _ => None,
        });
        assert_eq!(checkpoint_at, Some(10_002), "the checkpoint is mid-run");

        let mut p2 = replica_with(policy);
        let mut ctx2 = CtxWithSm::new(snapshots);
        p2.on_recover(&ctx.log.clone(), &mut ctx2);
        assert_eq!(ctx2.executed, ctx.executed, "compact={compact}");
        let restored = if snapshots { 3 } else { 0 };
        assert_eq!(p2.committed_count() + restored, p.committed_count());
        assert_eq!(p2.last_committed_ts(), p.last_committed_ts());
        let keys = |c: &CtxWithSm| c.commits.iter().map(|c| c.order_hint).collect::<Vec<_>>();
        assert_eq!(keys(&ctx2), keys(&ctx)[restored as usize..]);
    }
}
