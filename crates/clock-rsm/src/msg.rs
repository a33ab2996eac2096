//! Clock-RSM wire messages.

use paxos::synod::SynodMsg;
use rsm_core::batch::Batch;
use rsm_core::checkpoint::{CatchUp, CatchUpReply, Checkpoint};
use rsm_core::command::Command;
use rsm_core::config::Epoch;
use rsm_core::id::ReplicaId;
use rsm_core::time::Timestamp;
use rsm_core::wire::WireMsg;

rsm_core::wire_table! {
    /// A logged command as exchanged during reconfiguration and state
    /// transfer: the `⟨cmd, ts⟩` pairs of Algorithm 3 plus the originating
    /// replica (needed to route the reply and break timestamp ties).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LoggedCmd {
        /// The command's unique timestamp.
        pub ts: Timestamp,
        /// The replica that originated the command.
        pub origin: ReplicaId,
        /// The command itself.
        pub cmd: Command,
    }
}

rsm_core::wire_table! {
    /// The value decided by the reconfiguration consensus for one epoch
    /// (Algorithm 3, line 6): the next configuration, the reconfigurer's last
    /// commit timestamp, and every command logged past it by a majority.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Decision {
        /// The configuration to install.
        pub config: Vec<ReplicaId>,
        /// The reconfigurer's last commit mark; commands at or below it are
        /// known committed system-wide.
        pub cts: Timestamp,
        /// Commands with timestamps greater than `cts` collected from a
        /// majority — everything that *could* have committed.
        pub cmds: Vec<LoggedCmd>,
    }
}

rsm_core::wire_table! {
    /// Messages exchanged by Clock-RSM replicas.
    ///
    /// `PrepareBatch`, `PrepareOk`, and `ClockTime` are the data plane
    /// (Algorithms 1 and 2, generalized to whole-batch replication), and
    /// `ClockProbe`/`ClockEcho` the read path. `Suspend`, `SuspendOk` and
    /// `Synod` implement reconfiguration (Algorithm 3); state transfer and
    /// epoch catch-up (Section V-B) ride the shared catch-up exchange,
    /// `CatchUp`/`CatchUpReply`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum RsmMsg {
        /// Replication request for an ordered batch of client commands
        /// (Algorithm 1, line 3, generalized). The batch carries **one** head
        /// timestamp; command `i` implicitly has timestamp `ts + i` (same
        /// originating replica), so a batch of `k` commands occupies the
        /// contiguous timestamp run `[ts, ts + k)` and costs one message
        /// instead of `k`.
        0 => PrepareBatch {
            /// Sender's current epoch.
            epoch: Epoch,
            /// Head timestamp assigned by the originating replica; the batch
            /// spans `ts .. ts + cmds.len()` in that replica's timestamp
            /// space.
            ts: Timestamp,
            /// The originating replica.
            origin: ReplicaId,
            /// The commands to replicate, in execution order.
            cmds: Batch,
        },
        /// Cumulative logging acknowledgement, broadcast to overlap commit
        /// steps (Algorithm 1, line 10, generalized).
        ///
        /// Acknowledges **every** `PREPARE` from the replica `up_to.replica()`
        /// with timestamp `≤ up_to` — sound because an originator emits its
        /// prepares in strictly increasing timestamp order over FIFO
        /// channels, so receiving a batch ending at `up_to` implies having
        /// logged everything before it. One ack therefore covers a whole
        /// batch (and subsumes any earlier ack for the same originator),
        /// collapsing the per-timestamp replication counters of the original
        /// algorithm into per-originator watermarks.
        1 => PrepareOk {
            /// Sender's current epoch.
            epoch: Epoch,
            /// Watermark: all prepares from `up_to.replica()` with timestamps
            /// at or below this are logged at the sender.
            up_to: Timestamp,
            /// The acknowledging replica's clock at send time — its promise
            /// never to send a smaller timestamp afterwards.
            clock_ts: Timestamp,
        },
        /// Periodic clock broadcast (Algorithm 2); doubles as the failure
        /// detector heartbeat.
        2 => ClockTime {
            /// Sender's current epoch.
            epoch: Epoch,
            /// The sender's latest clock reading.
            ts: Timestamp,
        },
        /// Freeze request starting a reconfiguration (Algorithm 3, line 4).
        3 => Suspend {
            /// The epoch the reconfigurer is trying to establish.
            epoch: Epoch,
            /// The reconfigurer's last commit mark.
            cts: Timestamp,
        },
        /// Reply to [`Suspend`](RsmMsg::Suspend) carrying all logged commands
        /// with timestamps greater than the suspend's `cts` (line 10).
        4 => SuspendOk {
            /// The epoch being acknowledged.
            epoch: Epoch,
            /// Logged commands beyond the reconfigurer's commit point.
            cmds: Vec<LoggedCmd>,
        },
        /// A consensus message for the given epoch's reconfiguration decision.
        5 => Synod {
            /// The epoch this consensus instance decides.
            epoch: Epoch,
            /// The wrapped single-decree Paxos message.
            msg: SynodMsg<Decision>,
        },
        /// The one catch-up request (`rsm_core::checkpoint`), Algorithm 3's
        /// state transfer (line 26) and epoch catch-up in one row. Clock-RSM
        /// coordinates are inclusive commit points, so `req` asks for the
        /// commands in `(from, below]`. Sent by a replica applying a
        /// decision beyond its commit point (to all of Spec, a majority must
        /// answer), and by one that sees a later epoch than `decided` (to
        /// the sender, paced by `Executor::request_catch_up`). A responder
        /// in a later epoch than `decided` answers with its snapshot; any
        /// other follows the one answer rule (`Executor::answer_catch_up`).
        6 => CatchUp {
            /// The newest epoch the asker holds every decision through: its
            /// own, or the next ones it has decided but not applied yet.
            decided: Epoch,
            /// The asked range.
            req: CatchUp<Timestamp>,
        },
        /// The answer to a [`CatchUp`](RsmMsg::CatchUp), or to a
        /// [`Suspend`](RsmMsg::Suspend) that asks from below the sender's
        /// compacted log or from an epoch it installed: `Runs`, the commands
        /// the sender logged in the asked range (line 31); `Snapshot`, its
        /// live state, which installs its commit point and epoch.
        7 => CatchUpReply(CatchUpReply<Timestamp, Vec<LoggedCmd>>),
        /// A read probe (`rsm_core::read`), sent to every configuration
        /// member (the sender included) to collect fresh clock evidence for
        /// the reads riding it: each peer answers at once with a
        /// [`ClockEcho`](RsmMsg::ClockEcho). Self-delivered, it lifts the
        /// sender's own `LatestTV` lane and is its own answer. `seq` was
        /// added in wire version 3.
        10 => ClockProbe {
            /// Sender's current epoch.
            epoch: Epoch,
            /// The sender's clock, above everything it sent before.
            ts: Timestamp,
            /// The sender's probe sequence number, named by every echo.
            seq: u64,
        },
        /// A peer's answer to a [`ClockProbe`](RsmMsg::ClockProbe): clock
        /// evidence, and one answer toward the probe's quorum under the
        /// prober's current epoch.
        12 => ClockEcho {
            /// The echoing replica's current epoch.
            epoch: Epoch,
            /// The echoing replica's clock at send time.
            ts: Timestamp,
            /// The probe this echo answers.
            seq: u64,
        },
    }
}

/// A snapshot answer: the shared answer rule's snapshot arm, or the whole
/// answer to a replica in an earlier epoch ([`rsm_core::exec::Executor`]).
impl From<Checkpoint<Timestamp>> for RsmMsg {
    fn from(cp: Checkpoint<Timestamp>) -> Self {
        RsmMsg::CatchUpReply(CatchUpReply::Snapshot(cp))
    }
}

impl WireMsg for RsmMsg {
    /// A [`PrepareBatch`](RsmMsg::PrepareBatch) broadcast clones one
    /// `Arc`'d [`Batch`] per peer; batch identity plus the scalar head
    /// fields decides byte-identity without touching command payloads.
    fn shares_encoding(&self, prev: &Self) -> bool {
        match (self, prev) {
            (
                RsmMsg::PrepareBatch {
                    epoch: e1,
                    ts: t1,
                    origin: o1,
                    cmds: c1,
                },
                RsmMsg::PrepareBatch {
                    epoch: e2,
                    ts: t2,
                    origin: o2,
                    cmds: c2,
                },
            ) => e1 == e2 && t1 == t2 && o1 == o2 && c1.ptr_eq(c2),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rsm_core::command::CommandId;
    use rsm_core::id::ClientId;
    use rsm_core::wire::WireSize;

    fn cmd(len: usize) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), 1),
            Bytes::from(vec![0u8; len]),
        )
    }

    #[test]
    fn prepare_carries_payload_weight() {
        let p = RsmMsg::PrepareBatch {
            epoch: Epoch::ZERO,
            ts: Timestamp::new(1, ReplicaId::new(0)),
            origin: ReplicaId::new(0),
            cmds: Batch::single(cmd(100)),
        };
        let ok = RsmMsg::PrepareOk {
            epoch: Epoch::ZERO,
            up_to: Timestamp::new(1, ReplicaId::new(0)),
            clock_ts: Timestamp::new(2, ReplicaId::new(1)),
        };
        assert!(p.wire_size() >= ok.wire_size() + 100);
    }

    #[test]
    fn batched_prepare_amortizes_the_header() {
        let batched = RsmMsg::PrepareBatch {
            epoch: Epoch::ZERO,
            ts: Timestamp::new(1, ReplicaId::new(0)),
            origin: ReplicaId::new(0),
            cmds: Batch::new((0..8).map(|_| cmd(10)).collect()),
        };
        let single = RsmMsg::PrepareBatch {
            epoch: Epoch::ZERO,
            ts: Timestamp::new(1, ReplicaId::new(0)),
            origin: ReplicaId::new(0),
            cmds: Batch::single(cmd(10)),
        };
        assert!(batched.wire_size() < 8 * single.wire_size());
    }

    #[test]
    fn decision_size_scales_with_commands() {
        let d0 = Decision {
            config: vec![ReplicaId::new(0)],
            cts: Timestamp::ZERO,
            cmds: vec![],
        };
        let d2 = Decision {
            config: vec![ReplicaId::new(0)],
            cts: Timestamp::ZERO,
            cmds: vec![
                LoggedCmd {
                    ts: Timestamp::ZERO,
                    origin: ReplicaId::new(0),
                    cmd: cmd(10),
                },
                LoggedCmd {
                    ts: Timestamp::ZERO,
                    origin: ReplicaId::new(0),
                    cmd: cmd(10),
                },
            ],
        };
        assert!(d2.wire_size() > d0.wire_size() + 20);
    }
}
