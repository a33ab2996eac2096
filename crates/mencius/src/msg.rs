//! Mencius-bcast wire messages.
//!
//! Like the other protocols in this workspace, the data plane is
//! batch-shaped: a coordinator proposes a whole [`Batch`] across its next
//! own slots with one message, and acknowledgements are cumulative
//! per-owner slot watermarks, so one ack covers the batch.

use rsm_core::batch::Batch;
use rsm_core::checkpoint::{CatchUp, CatchUpReply};
use rsm_core::command::Command;
use rsm_core::id::ReplicaId;
use rsm_core::read::{ReadReply, ReadRequest};
use rsm_core::wire::WireMsg;

rsm_core::wire_table! {
    /// Messages exchanged by [`MenciusBcast`](crate::MenciusBcast) replicas.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum MenciusMsg {
        /// The owner proposes `cmds` in its own slots `first_slot`,
        /// `first_slot + N`, …, `first_slot + (len-1)·N` (its slot space has
        /// stride `N`, the number of replicas).
        0 => Propose {
            /// The first slot being filled (owned by the sender).
            first_slot: u64,
            /// The commands bound to the consecutive own slots, in order.
            cmds: Batch,
            /// The replica whose clients issued the commands (the sender).
            origin: ReplicaId,
        },
        /// Cumulative broadcast acknowledgement: the sender has logged
        /// **every** slot owned by `up_to_slot % N` at or below `up_to_slot`
        /// (sound because an owner proposes its slots in increasing order
        /// over FIFO channels). Also carries the sender's **skip promise**:
        /// it will never propose in any of its own slots below `skip_below`.
        1 => AcceptAck {
            /// Watermark slot; its owner is `up_to_slot % N`.
            up_to_slot: u64,
            /// The sender's skip promise (exclusive lower bound on its future
            /// own-slot proposals).
            skip_below: u64,
        },
        /// A recovered replica asks an owner for every proposal it made in
        /// its own slots from `from`, the requester's execution cursor
        /// (the shared catch-up exchange, `rsm_core::checkpoint`; `below`
        /// is unbounded). After a crash the sender can no longer tell a
        /// skipped slot from a proposal lost in flight while it was down,
        /// so it neither skips nor acknowledges the owner's slots until
        /// the answer resyncs it.
        2 => CatchUp(CatchUp<u64>),
        /// The owner's answer to a [`CatchUp`](MenciusMsg::CatchUp). `Runs`:
        /// every proposal it ever made in its own slots within `[from,
        /// below)`, as `(slot, command)` pairs read from its stable log;
        /// own slots in the range absent from them are permanently empty,
        /// and `below` is lowered to the owner's frontier, its next own
        /// slot, so every later proposal follows the answer. When the
        /// owner's log was compacted past `from` (its own proposals there
        /// are folded into the checkpoint it leads with): `Snapshot`, its
        /// state through every slot below the carried (exclusive)
        /// watermark, which the requester installs before resuming
        /// resolution from the watermark.
        3 => CatchUpReply(CatchUpReply<u64, Vec<(u64, Command)>>),
        /// Quorum-read probe (`rsm_core::read`): a replica with a pending
        /// local read asks a peer for its read mark. Clock-free: safety
        /// comes from quorum intersection (a committed slot was logged by a
        /// majority, which intersects the probed majority).
        6 => ReadProbe(ReadRequest),
        /// Answer to a [`ReadProbe`](MenciusMsg::ReadProbe): the responder's
        /// read marks, one coordinate **per owner** instead of one scalar.
        ///
        /// `owner_marks[o]` is an exclusive upper bound on owner `o`'s slots
        /// that any *completed* write could occupy, from the responder's
        /// perspective:
        ///
        /// * for the responder's **own** slot space (`o == responder`) it is
        ///   the responder's execution cursor — tight, because an owner
        ///   replies to a client only after executing the write, so every
        ///   completed own-slot write sits strictly below it. Crucially this
        ///   *excludes* the responder's own in-flight (logged but uncommitted)
        ///   proposals, which a scalar logged-top mark would force the read
        ///   to wait out;
        /// * for every **other** owner it is the logged-top bound (cursor
        ///   raised past every slot of that owner in the responder's slot
        ///   table) — the classic quorum-intersection guarantee: a completed
        ///   write of a non-responding owner was logged by a majority, which
        ///   intersects the probed majority.
        ///
        /// The scalar [`ReadReply::mark`] is still carried for diagnostics
        /// and as the conservative fallback.
        7 => ReadMark {
            /// Probe echo plus the folded scalar mark (conservative).
            reply: ReadReply,
            /// Per-owner exclusive bounds, indexed by owner; see above.
            owner_marks: Vec<u64>,
        },
    }
}

impl WireMsg for MenciusMsg {
    /// A [`Propose`](MenciusMsg::Propose) broadcast clones one `Arc`'d
    /// [`Batch`] per peer; batch identity plus the scalar fields decides
    /// byte-identity without touching command payloads.
    fn shares_encoding(&self, prev: &Self) -> bool {
        match (self, prev) {
            (
                MenciusMsg::Propose {
                    first_slot: s1,
                    cmds: c1,
                    origin: o1,
                },
                MenciusMsg::Propose {
                    first_slot: s2,
                    cmds: c2,
                    origin: o2,
                },
            ) => s1 == s2 && o1 == o2 && c1.ptr_eq(c2),
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

    #[test]
    fn batched_propose_amortizes_the_header() {
        let one = MenciusMsg::Propose {
            first_slot: 0,
            cmds: Batch::single(cmd(10)),
            origin: ReplicaId::new(0),
        };
        let eight = MenciusMsg::Propose {
            first_slot: 0,
            cmds: Batch::new((0..8).map(|_| cmd(10)).collect()),
            origin: ReplicaId::new(0),
        };
        assert!(eight.wire_size() < 8 * one.wire_size());
    }
}
