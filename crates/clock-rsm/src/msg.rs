//! Clock-RSM wire messages.

use bytes::BytesMut;
use paxos::synod::SynodMsg;
use rsm_core::batch::Batch;
use rsm_core::checkpoint::StateTransferReply;
use rsm_core::command::Command;
use rsm_core::config::Epoch;
use rsm_core::id::ReplicaId;
use rsm_core::time::Timestamp;
use rsm_core::wire::MSG_HEADER_BYTES;
use rsm_core::wire::{WireDecode, WireEncode, WireError, WireMsg, WireReader, WireSize};

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

impl WireSize for LoggedCmd {
    fn wire_size(&self) -> usize {
        16 + self.cmd.wire_size()
    }
}

impl WireEncode for LoggedCmd {
    fn encode(&self, buf: &mut BytesMut) {
        self.ts.encode(buf);
        self.origin.encode(buf);
        self.cmd.encode(buf);
    }
}

impl WireDecode for LoggedCmd {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(LoggedCmd {
            ts: Timestamp::decode(r)?,
            origin: ReplicaId::decode(r)?,
            cmd: Command::decode(r)?,
        })
    }
}

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

impl WireSize for Decision {
    fn wire_size(&self) -> usize {
        16 + 2 * self.config.len() + self.cmds.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

impl WireEncode for Decision {
    fn encode(&self, buf: &mut BytesMut) {
        self.config.encode(buf);
        self.cts.encode(buf);
        self.cmds.encode(buf);
    }
}

impl WireDecode for Decision {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Decision {
            config: Vec::<ReplicaId>::decode(r)?,
            cts: Timestamp::decode(r)?,
            cmds: Vec::<LoggedCmd>::decode(r)?,
        })
    }
}

/// Messages exchanged by Clock-RSM replicas.
///
/// `PrepareBatch`, `PrepareOk`, and `ClockTime` are the data plane
/// (Algorithms 1 and 2, generalized to whole-batch replication); the rest
/// implement reconfiguration, state transfer, and epoch catch-up
/// (Algorithm 3 and Section V-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsmMsg {
    /// Replication request for an ordered batch of client commands
    /// (Algorithm 1, line 3, generalized). The batch carries **one** head
    /// timestamp; command `i` implicitly has timestamp `ts + i` (same
    /// originating replica), so a batch of `k` commands occupies the
    /// contiguous timestamp run `[ts, ts + k)` and costs one message
    /// instead of `k`.
    PrepareBatch {
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
    PrepareOk {
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
    ClockTime {
        /// Sender's current epoch.
        epoch: Epoch,
        /// The sender's latest clock reading.
        ts: Timestamp,
    },
    /// Freeze request starting a reconfiguration (Algorithm 3, line 4).
    Suspend {
        /// The epoch the reconfigurer is trying to establish.
        epoch: Epoch,
        /// The reconfigurer's last commit mark.
        cts: Timestamp,
    },
    /// Reply to [`Suspend`](RsmMsg::Suspend) carrying all logged commands
    /// with timestamps greater than the suspend's `cts` (line 10).
    SuspendOk {
        /// The epoch being acknowledged.
        epoch: Epoch,
        /// Logged commands beyond the reconfigurer's commit point.
        cmds: Vec<LoggedCmd>,
    },
    /// A consensus message for the given epoch's reconfiguration decision.
    Synod {
        /// The epoch this consensus instance decides.
        epoch: Epoch,
        /// The wrapped single-decree Paxos message.
        msg: SynodMsg<Decision>,
    },
    /// State transfer request (Algorithm 3, line 26): fetch commands in
    /// `(from_ts, to_ts]`.
    RetrieveCmds {
        /// Exclusive lower bound.
        from_ts: Timestamp,
        /// Inclusive upper bound.
        to_ts: Timestamp,
    },
    /// State transfer response (line 31).
    RetrieveReply {
        /// Echo of the request's lower bound.
        from_ts: Timestamp,
        /// Echo of the request's upper bound.
        to_ts: Timestamp,
        /// The logged commands in range.
        cmds: Vec<LoggedCmd>,
    },
    /// Request for reconfiguration decisions newer than `have_epoch`,
    /// sent by a replica that notices it lags behind.
    DecisionRequest {
        /// The requester's current epoch.
        have_epoch: Epoch,
    },
    /// Catch-up response: the decisions the requester is missing,
    /// in epoch order.
    DecisionCatchup {
        /// `(epoch, decision)` pairs, ascending.
        decisions: Vec<(Epoch, Decision)>,
    },
    /// A read probe (`rsm_core::read`), sent to every configuration
    /// member (the sender included) to collect fresh clock evidence for
    /// the reads riding it: each peer answers at once with a
    /// [`ClockEcho`](RsmMsg::ClockEcho). Self-delivered, it lifts the
    /// sender's own `LatestTV` lane and is its own answer. Wire tag 10;
    /// `seq` was added in wire version 3.
    ClockProbe {
        /// Sender's current epoch.
        epoch: Epoch,
        /// The sender's clock, above everything it sent before.
        ts: Timestamp,
        /// The sender's probe sequence number, named by every echo.
        seq: u64,
    },
    /// A snapshot answering a [`Suspend`](RsmMsg::Suspend) or
    /// [`RetrieveCmds`](RsmMsg::RetrieveCmds) that asks from below the
    /// sender's compacted log. Wire tag 11, appended after
    /// `ClockProbe`: per the versioning rule in [`rsm_core::wire`], a new
    /// variant under a previously unused tag needs no `WIRE_VERSION`
    /// bump (an older receiver rejects it cleanly as `BadTag`).
    StateReply(StateTransferReply<Timestamp>),
    /// A peer's answer to a [`ClockProbe`](RsmMsg::ClockProbe): clock
    /// evidence, and one answer toward the probe's quorum under the
    /// prober's current epoch. Wire tag 12, appended.
    ClockEcho {
        /// The echoing replica's current epoch.
        epoch: Epoch,
        /// The echoing replica's clock at send time.
        ts: Timestamp,
        /// The probe this echo answers.
        seq: u64,
    },
}

impl WireSize for RsmMsg {
    fn wire_size(&self) -> usize {
        match self {
            RsmMsg::PrepareBatch { cmds, .. } => MSG_HEADER_BYTES + cmds.wire_size(),
            RsmMsg::PrepareOk { .. }
            | RsmMsg::ClockTime { .. }
            | RsmMsg::ClockProbe { .. }
            | RsmMsg::ClockEcho { .. } => MSG_HEADER_BYTES,
            RsmMsg::Suspend { .. } | RsmMsg::DecisionRequest { .. } => MSG_HEADER_BYTES,
            RsmMsg::SuspendOk { cmds, .. } => {
                MSG_HEADER_BYTES + cmds.iter().map(WireSize::wire_size).sum::<usize>()
            }
            RsmMsg::Synod { msg, .. } => MSG_HEADER_BYTES + msg.wire_size(),
            RsmMsg::RetrieveCmds { .. } => MSG_HEADER_BYTES,
            RsmMsg::RetrieveReply { cmds, .. } => {
                MSG_HEADER_BYTES + cmds.iter().map(WireSize::wire_size).sum::<usize>()
            }
            RsmMsg::DecisionCatchup { decisions } => {
                MSG_HEADER_BYTES
                    + decisions
                        .iter()
                        .map(|(_, d)| 8 + d.wire_size())
                        .sum::<usize>()
            }
            RsmMsg::StateReply(reply) => reply.wire_size(),
        }
    }
}

impl WireEncode for RsmMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            RsmMsg::PrepareBatch {
                epoch,
                ts,
                origin,
                cmds,
            } => {
                0u8.encode(buf);
                epoch.encode(buf);
                ts.encode(buf);
                origin.encode(buf);
                cmds.encode(buf);
            }
            RsmMsg::PrepareOk {
                epoch,
                up_to,
                clock_ts,
            } => {
                1u8.encode(buf);
                epoch.encode(buf);
                up_to.encode(buf);
                clock_ts.encode(buf);
            }
            RsmMsg::ClockTime { epoch, ts } => {
                2u8.encode(buf);
                epoch.encode(buf);
                ts.encode(buf);
            }
            RsmMsg::Suspend { epoch, cts } => {
                3u8.encode(buf);
                epoch.encode(buf);
                cts.encode(buf);
            }
            RsmMsg::SuspendOk { epoch, cmds } => {
                4u8.encode(buf);
                epoch.encode(buf);
                cmds.encode(buf);
            }
            RsmMsg::Synod { epoch, msg } => {
                5u8.encode(buf);
                epoch.encode(buf);
                msg.encode(buf);
            }
            RsmMsg::RetrieveCmds { from_ts, to_ts } => {
                6u8.encode(buf);
                from_ts.encode(buf);
                to_ts.encode(buf);
            }
            RsmMsg::RetrieveReply {
                from_ts,
                to_ts,
                cmds,
            } => {
                7u8.encode(buf);
                from_ts.encode(buf);
                to_ts.encode(buf);
                cmds.encode(buf);
            }
            RsmMsg::DecisionRequest { have_epoch } => {
                8u8.encode(buf);
                have_epoch.encode(buf);
            }
            RsmMsg::DecisionCatchup { decisions } => {
                9u8.encode(buf);
                decisions.encode(buf);
            }
            RsmMsg::ClockProbe { epoch, ts, seq } => {
                10u8.encode(buf);
                epoch.encode(buf);
                ts.encode(buf);
                seq.encode(buf);
            }
            RsmMsg::StateReply(reply) => {
                11u8.encode(buf);
                reply.encode(buf);
            }
            RsmMsg::ClockEcho { epoch, ts, seq } => {
                12u8.encode(buf);
                epoch.encode(buf);
                ts.encode(buf);
                seq.encode(buf);
            }
        }
    }
}

impl WireDecode for RsmMsg {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => RsmMsg::PrepareBatch {
                epoch: Epoch::decode(r)?,
                ts: Timestamp::decode(r)?,
                origin: ReplicaId::decode(r)?,
                cmds: Batch::decode(r)?,
            },
            1 => RsmMsg::PrepareOk {
                epoch: Epoch::decode(r)?,
                up_to: Timestamp::decode(r)?,
                clock_ts: Timestamp::decode(r)?,
            },
            2 => RsmMsg::ClockTime {
                epoch: Epoch::decode(r)?,
                ts: Timestamp::decode(r)?,
            },
            3 => RsmMsg::Suspend {
                epoch: Epoch::decode(r)?,
                cts: Timestamp::decode(r)?,
            },
            4 => RsmMsg::SuspendOk {
                epoch: Epoch::decode(r)?,
                cmds: Vec::<LoggedCmd>::decode(r)?,
            },
            5 => RsmMsg::Synod {
                epoch: Epoch::decode(r)?,
                msg: SynodMsg::<Decision>::decode(r)?,
            },
            6 => RsmMsg::RetrieveCmds {
                from_ts: Timestamp::decode(r)?,
                to_ts: Timestamp::decode(r)?,
            },
            7 => RsmMsg::RetrieveReply {
                from_ts: Timestamp::decode(r)?,
                to_ts: Timestamp::decode(r)?,
                cmds: Vec::<LoggedCmd>::decode(r)?,
            },
            8 => RsmMsg::DecisionRequest {
                have_epoch: Epoch::decode(r)?,
            },
            9 => RsmMsg::DecisionCatchup {
                decisions: Vec::<(Epoch, Decision)>::decode(r)?,
            },
            10 => RsmMsg::ClockProbe {
                epoch: Epoch::decode(r)?,
                ts: Timestamp::decode(r)?,
                seq: u64::decode(r)?,
            },
            11 => RsmMsg::StateReply(StateTransferReply::<Timestamp>::decode(r)?),
            12 => RsmMsg::ClockEcho {
                epoch: Epoch::decode(r)?,
                ts: Timestamp::decode(r)?,
                seq: u64::decode(r)?,
            },
            tag => return Err(WireError::BadTag { ty: "RsmMsg", tag }),
        })
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
