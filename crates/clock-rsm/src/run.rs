//! Ordering state by the run. A PREPAREBATCH's commands hold the
//! consecutive timestamps `head + i` of one origin, so the replica keeps
//! each batch as one run — one `Arc` clone of the received [`Batch`].

use rsm_core::batch::Batch;
use rsm_core::command::Command;
use rsm_core::time::{Micros, Timestamp};

/// The timestamp of offset `i` in the run headed by `head`.
pub(crate) fn at(head: Timestamp, i: usize) -> Timestamp {
    Timestamp::new(head.micros() + i as Micros, head.replica())
}

/// The commands of `cmds` from offset `from` on, with their timestamps.
pub(crate) fn stamped(
    head: Timestamp,
    cmds: &Batch,
    from: usize,
) -> impl Iterator<Item = (Timestamp, &Command)> {
    let tail = &cmds.as_slice()[from..];
    (from..).zip(tail).map(move |(i, cmd)| (at(head, i), cmd))
}

/// A pending run: the commands `cmds[next..]` of one PREPAREBATCH not
/// yet committed, command `i` at timestamp `head + i`.
#[derive(Debug)]
pub(crate) struct Run {
    pub(crate) head: Timestamp,
    pub(crate) cmds: Batch,
    /// Offset of the first uncommitted command.
    pub(crate) next: usize,
}

impl Run {
    /// The timestamp of the first uncommitted command.
    pub(crate) fn front(&self) -> Timestamp {
        at(self.head, self.next)
    }
}
