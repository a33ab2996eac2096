//! The replicated state machine interface.

use bytes::Bytes;

use crate::command::Command;

/// A deterministic state machine replicated by the protocols.
///
/// Replicas apply the same commands in the same order; because `apply` is
/// deterministic, all replicas transit through the same states and produce
/// the same outputs (Section II-B of the paper). The `kvstore` crate
/// provides the key-value store used throughout the evaluation.
///
/// # Examples
///
/// ```
/// use rsm_core::{Command, CommandId, ClientId, ReplicaId, StateMachine};
/// use bytes::Bytes;
///
/// /// Counts the bytes it has ever been fed.
/// #[derive(Default)]
/// struct ByteCounter(u64);
///
/// impl StateMachine for ByteCounter {
///     fn apply(&mut self, cmd: &Command) -> Bytes {
///         self.0 += cmd.payload.len() as u64;
///         Bytes::copy_from_slice(&self.0.to_be_bytes())
///     }
///     fn snapshot(&self) -> Bytes {
///         Bytes::copy_from_slice(&self.0.to_be_bytes())
///     }
///     fn reset(&mut self) {
///         self.0 = 0;
///     }
///     fn restore(&mut self, snapshot: &[u8]) -> bool {
///         snapshot.try_into().map(|b| self.0 = u64::from_be_bytes(b)).is_ok()
///     }
/// }
///
/// let mut sm = ByteCounter::default();
/// let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), 1);
/// let out = sm.apply(&Command::new(id, Bytes::from_static(b"abc")));
/// assert_eq!(out.as_ref(), 3u64.to_be_bytes());
/// ```
pub trait StateMachine: Send {
    /// Executes `cmd`, mutating the state and producing the client-visible
    /// result. Must be deterministic: same state + same command ⇒ same new
    /// state and same result.
    fn apply(&mut self, cmd: &Command) -> Bytes;

    /// A canonical byte representation of the current state, used by tests
    /// to assert replica convergence. Two state machines that have applied
    /// the same command sequence must produce equal snapshots.
    fn snapshot(&self) -> Bytes;

    /// Returns the machine to its initial state (used when a recovering
    /// replica replays its log from scratch).
    fn reset(&mut self);

    /// Restores the machine from a snapshot previously produced by
    /// [`snapshot`](StateMachine::snapshot): how a replica recovers from
    /// the checkpoint at the head of its log, and installs a peer's.
    /// Returns false, with nothing changed, for bytes that are no
    /// snapshot of this machine. A replica refuses such a peer snapshot,
    /// and refuses to recover from such a checkpoint of its own.
    fn restore(&mut self, snapshot: &[u8]) -> bool;

    /// Executes `cmd` **read-only** against the current state, without
    /// mutating anything, returning the same result [`apply`] would.
    /// Returns `None` (the default) when the command is not actually
    /// read-only — or the machine does not support side-effect-free
    /// queries — in which case the read subsystem falls back to
    /// replicating the command as an ordinary write.
    ///
    /// This is the state machine's half of the local-read contract
    /// (`rsm_core::read`): the protocol decides *when* the local prefix
    /// is linearizable for the read; `query` guarantees serving it
    /// cannot perturb replicated state.
    ///
    /// [`apply`]: StateMachine::apply
    fn query(&self, _cmd: &Command) -> Option<Bytes> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandId;
    use crate::id::{ClientId, ReplicaId};

    #[derive(Default)]
    struct Appender(Vec<u8>);

    impl StateMachine for Appender {
        fn apply(&mut self, cmd: &Command) -> Bytes {
            self.0.extend_from_slice(&cmd.payload);
            Bytes::copy_from_slice(&self.0)
        }
        fn snapshot(&self) -> Bytes {
            Bytes::copy_from_slice(&self.0)
        }
        fn reset(&mut self) {
            self.0.clear();
        }
        fn restore(&mut self, snapshot: &[u8]) -> bool {
            self.0 = snapshot.to_vec();
            true
        }
    }

    fn cmd(seq: u64, payload: &'static [u8]) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(payload),
        )
    }

    #[test]
    fn same_sequence_same_snapshot() {
        let mut a = Appender::default();
        let mut b = Appender::default();
        for c in [cmd(1, b"x"), cmd(2, b"yz")] {
            a.apply(&c);
            b.apply(&c);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut a = Appender::default();
        a.apply(&cmd(1, b"x"));
        a.reset();
        assert_eq!(a.snapshot(), Appender::default().snapshot());
    }
}
