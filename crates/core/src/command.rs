//! Client commands, replies, and committed-command records.

use std::fmt;

use bytes::Bytes;

use crate::id::{ClientId, ReplicaId};
use crate::time::Micros;

crate::wire_table! {
    /// Uniquely identifies one client command: the issuing client plus a
    /// per-client sequence number.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsm_core::{ClientId, CommandId, ReplicaId};
    /// let client = ClientId::new(ReplicaId::new(0), 4);
    /// let id = CommandId::new(client, 17);
    /// assert_eq!(id.seq, 17);
    /// ```
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct CommandId {
        /// The client that issued the command.
        pub client: ClientId,
        /// Per-client monotonically increasing sequence number.
        pub seq: u64,
    }
}

impl CommandId {
    /// Creates a command id.
    pub fn new(client: ClientId, seq: u64) -> Self {
        CommandId { client, seq }
    }
}

impl fmt::Debug for CommandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

/// An opaque state machine command submitted by a client.
///
/// The replication protocols treat the payload as a black box; the
/// `kvstore` crate gives it meaning (get/put/delete operations). Payloads
/// are [`Bytes`], so cloning a command when rebroadcasting it is cheap
/// (reference counted), matching a production implementation.
#[derive(Clone, PartialEq, Eq)]
pub struct Command {
    /// Unique identity of the command.
    pub id: CommandId,
    /// Opaque operation payload interpreted by the replicated state machine.
    pub payload: Bytes,
    /// Whether the client declares this command **read-only**: it does
    /// not mutate the state machine, so drivers may route it down the
    /// protocol's local read path (`rsm_core::read`) instead of
    /// replicating it. The declaration is advisory — the state machine
    /// re-checks via [`StateMachine::query`](crate::StateMachine::query)
    /// and a mutating payload falsely marked read-only is simply
    /// replicated like any write.
    pub read_only: bool,
    /// An externally chosen snapshot timestamp for a read-only command
    /// (microseconds on the global physical timeline). A sharded router
    /// sets this so every shard of a multi-key read serves its piece at
    /// the **same** cut: a Clock-RSM replica parks the read until its
    /// stable timestamp passes `read_at` and serves it from state
    /// containing exactly the writes stamped at or below it. Protocols
    /// without a stable-timestamp discipline (Paxos, Mencius) ignore the
    /// field and serve their usual per-group linearizable read. `None`
    /// (every ordinary command) means "stamp locally as usual".
    pub read_at: Option<Micros>,
}

impl Command {
    /// Creates a (write) command from its id and payload.
    pub fn new(id: CommandId, payload: Bytes) -> Self {
        Command {
            id,
            payload,
            read_only: false,
            read_at: None,
        }
    }

    /// Creates a command declared read-only (see
    /// [`read_only`](Command::read_only)).
    pub fn read(id: CommandId, payload: Bytes) -> Self {
        Command {
            id,
            payload,
            read_only: true,
            read_at: None,
        }
    }

    /// Creates a read-only command pinned to an external snapshot
    /// timestamp (see [`read_at`](Command::read_at)).
    pub fn read_at(id: CommandId, payload: Bytes, at: Micros) -> Self {
        Command {
            id,
            payload,
            read_only: true,
            read_at: Some(at),
        }
    }

    /// Payload length in bytes — the "command size" knob of the paper's
    /// throughput evaluation (Figure 8: 10 B / 100 B / 1000 B).
    pub fn size(&self) -> usize {
        self.payload.len()
    }
}

impl fmt::Debug for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Command({:?}, {}B)", self.id, self.payload.len())
    }
}

crate::wire_table! {
    /// The result of executing a command on the replicated state machine,
    /// returned to the issuing client by its local replica.
    #[derive(Clone, PartialEq, Eq)]
    pub struct Reply {
        /// Which command this reply answers.
        pub id: CommandId,
        /// Opaque result produced by the state machine.
        pub result: Bytes,
    }
}

impl Reply {
    /// Creates a reply for the command `id`.
    pub fn new(id: CommandId, result: Bytes) -> Self {
        Reply { id, result }
    }
}

impl fmt::Debug for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reply({:?}, {}B)", self.id, self.result.len())
    }
}

/// A command that a protocol has decided and is handing to the state machine
/// for execution, in execution order.
///
/// `order_hint` is the protocol's own ordering coordinate — the timestamp in
/// microseconds for Clock-RSM, the instance number for Paxos, the slot for
/// Mencius — useful for tracing and for asserting monotonic execution in
/// tests.
#[derive(Clone, Debug)]
pub struct Committed {
    /// The decided command.
    pub cmd: Command,
    /// The replica that coordinated (originated) the command.
    pub origin: ReplicaId,
    /// Protocol-specific ordering coordinate; strictly increasing per replica.
    pub order_hint: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(seq: u64) -> CommandId {
        CommandId::new(ClientId::new(ReplicaId::new(0), 1), seq)
    }

    #[test]
    fn command_size_reports_payload_length() {
        let c = Command::new(cid(1), Bytes::from(vec![0u8; 64]));
        assert_eq!(c.size(), 64);
    }

    #[test]
    fn command_clone_is_cheap_and_equal() {
        let c = Command::new(cid(2), Bytes::from_static(b"payload"));
        let d = c.clone();
        assert_eq!(c, d);
        // Bytes clones share the same backing storage.
        assert_eq!(c.payload.as_ptr(), d.payload.as_ptr());
    }

    #[test]
    fn command_ids_order_by_client_then_seq() {
        assert!(cid(1) < cid(2));
        let other = CommandId::new(ClientId::new(ReplicaId::new(1), 0), 0);
        assert!(cid(9) < other);
    }

    #[test]
    fn debug_formats_are_informative() {
        let c = Command::new(cid(3), Bytes::from_static(b"xyz"));
        let s = format!("{c:?}");
        assert!(s.contains("3B"), "{s}");
        let r = Reply::new(cid(3), Bytes::new());
        assert!(format!("{r:?}").contains("Reply"));
    }
}
