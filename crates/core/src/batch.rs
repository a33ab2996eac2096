//! Command batches and batching policy.
//!
//! The paper's throughput analysis (Section VI-D) attributes Paxos's
//! small-command advantage to the leader "batching more commands when
//! sending and receiving messages". This module makes batching a
//! first-class protocol concept rather than a CPU-model artifact: drivers
//! coalesce queued client requests into a [`Batch`], protocols replicate
//! the whole batch with **one** wire message and **one** acknowledgement,
//! and per-command ordering coordinates are derived from a single head
//! coordinate plus each command's offset within the batch.
//!
//! A `Batch` is strictly ordered: command `i` executes before command
//! `i + 1`, and a protocol maps offset `i` onto its own order space —
//! Clock-RSM assigns timestamp `head + i`, Paxos instance `first + i`,
//! Mencius the `i`-th own slot after `first`.
//!
//! One hot-path concern lives here besides the data type:
//! **allocation-lean fan-out.** A batch's command vector is stored
//! behind an [`Arc`], so cloning a `Batch` (and therefore cloning a
//! `PrepareBatch`/`Accept`/`Propose` message once per peer during a
//! broadcast) bumps a reference count instead of deep-copying every
//! command. An N-peer fan-out of a 64-command batch shares one
//! allocation N + 1 ways; [`Batch::ptr_eq`] makes the sharing testable.

use std::fmt;
use std::sync::Arc;

use crate::command::Command;

/// An ordered, non-empty group of client commands replicated as one unit.
///
/// # Examples
///
/// ```
/// use rsm_core::{Batch, Command, CommandId, ClientId, ReplicaId};
/// use bytes::Bytes;
///
/// let client = ClientId::new(ReplicaId::new(0), 0);
/// let cmds: Vec<Command> = (1..=3)
///     .map(|seq| Command::new(CommandId::new(client, seq), Bytes::from_static(b"op")))
///     .collect();
/// let batch = Batch::new(cmds);
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.get(2).id.seq, 3);
/// let shared = batch.clone(); // O(1): clones share the command vector
/// assert!(batch.ptr_eq(&shared));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Batch {
    /// Shared storage: cloning a batch — which every per-peer message
    /// clone in a broadcast does — is a reference-count bump, never a
    /// deep copy of the commands.
    cmds: Arc<Vec<Command>>,
}

impl Batch {
    /// Wraps an ordered command sequence.
    ///
    /// # Panics
    ///
    /// Panics if `cmds` is empty: protocols rely on every batch carrying
    /// at least one command (a head coordinate with zero span is
    /// meaningless).
    pub fn new(cmds: Vec<Command>) -> Self {
        assert!(!cmds.is_empty(), "batches are non-empty");
        Batch {
            cmds: Arc::new(cmds),
        }
    }

    /// A batch holding a single command (the unbatched fast path).
    pub fn single(cmd: Command) -> Self {
        Batch {
            cmds: Arc::new(vec![cmd]),
        }
    }

    /// Whether two batches share the same backing storage (the
    /// `Bytes::ptr_eq` analogue for command vectors). True between a
    /// batch and its clones — which is exactly what a broadcast produces
    /// — and the property the allocation-lean fan-out tests assert.
    pub fn ptr_eq(&self, other: &Batch) -> bool {
        Arc::ptr_eq(&self.cmds, &other.cmds)
    }

    /// Number of commands in the batch.
    #[allow(clippy::len_without_is_empty)] // batches are never empty
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// The command at offset `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &Command {
        &self.cmds[i]
    }

    /// Iterates the commands in batch order.
    pub fn iter(&self) -> std::slice::Iter<'_, Command> {
        self.cmds.iter()
    }

    /// The commands as a slice.
    pub fn as_slice(&self) -> &[Command] {
        &self.cmds
    }

    /// The commands at offsets `range`, as a batch of their own: an O(1)
    /// clone when `range` is the whole batch, one copy of the kept
    /// commands otherwise (for the rare paths that trim a logged run).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty or reaches past `len()`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Batch {
        if range == (0..self.len()) {
            return self.clone();
        }
        Batch::new(self.cmds[range].to_vec())
    }

    /// Consumes the batch, yielding its commands. Free when this is the
    /// last reference to the storage; clones the commands once otherwise
    /// (a batch just received off a broadcast usually still shares its
    /// storage with the sender's other in-flight copies, so hot
    /// receive paths should prefer [`iter`](Batch::iter) and clone the
    /// individual commands they keep — `Command` clones are cheap).
    pub fn into_vec(self) -> Vec<Command> {
        Arc::try_unwrap(self.cmds).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Total payload bytes across all commands.
    pub fn payload_bytes(&self) -> usize {
        self.cmds.iter().map(Command::size).sum()
    }
}

impl IntoIterator for Batch {
    type Item = Command;
    type IntoIter = std::vec::IntoIter<Command>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a Command;
    type IntoIter = std::slice::Iter<'a, Command>;
    fn into_iter(self) -> Self::IntoIter {
        self.cmds.iter()
    }
}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Batch({} cmds, {}B)",
            self.cmds.len(),
            self.payload_bytes()
        )
    }
}

/// How a driver coalesces queued client requests into batches.
///
/// Drivers flush **opportunistically, never waiting intentionally** (the
/// paper's own batching discipline): whatever requests are queued when the
/// replica gets scheduled form the next batch, capped at
/// [`max_batch`](BatchPolicy::max_batch) commands. The cap never delays a
/// command — a lone request commits with batch-of-1 latency under any
/// cap; it only bounds how much a deep queue may coalesce into one wire
/// message. `max_batch == 1` disables batching and reproduces the
/// per-command protocol exactly. Every driver cuts its queue with one
/// rule, [`node::intake`](crate::node::intake).
///
/// # Examples
///
/// ```
/// use rsm_core::BatchPolicy;
/// assert_eq!(BatchPolicy::max(8).max_batch, 8);
/// assert_eq!(BatchPolicy::DISABLED.max_batch, 1);
/// let p = BatchPolicy::max(4);
/// assert!(p.fits(0) && p.fits(3));
/// assert!(!p.fits(4)); // cap reached: flush
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Hard cap on commands per batch.
    pub max_batch: usize,
}

impl BatchPolicy {
    /// Batching off: every command travels alone.
    pub const DISABLED: BatchPolicy = BatchPolicy { max_batch: 1 };

    /// A policy flushing at most `max_batch` commands per batch.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn max(max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be at least 1");
        BatchPolicy { max_batch }
    }

    /// Whether this policy ever coalesces requests at all — i.e. whether
    /// a driver needs to route requests through its inbox to give the
    /// policy something to work with.
    pub fn coalesces(&self) -> bool {
        self.max_batch > 1
    }

    /// Whether a batch currently holding `len` commands may admit
    /// another.
    pub fn fits(&self, len: usize) -> bool {
        len < self.max_batch
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::DISABLED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandId;
    use crate::id::{ClientId, ReplicaId};
    use crate::wire::{WireEncode, MSG_HEADER_BYTES};
    use bytes::Bytes;

    fn cmd(seq: u64, len: usize) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from(vec![0u8; len]),
        )
    }

    #[test]
    fn batch_preserves_order() {
        let b = Batch::new(vec![cmd(1, 4), cmd(2, 4), cmd(3, 4)]);
        let seqs: Vec<u64> = b.iter().map(|c| c.id.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(b.payload_bytes(), 12);
    }

    #[test]
    fn slice_shares_the_whole_batch_and_copies_a_part() {
        let b = Batch::new((1..=4).map(|i| cmd(i, 4)).collect());
        assert!(b.slice(0..4).ptr_eq(&b));
        let part = b.slice(1..3);
        let seqs: Vec<u64> = part.iter().map(|c| c.id.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_batch_rejected() {
        let _ = Batch::new(Vec::new());
    }

    #[test]
    fn batch_wire_size_amortizes_headers() {
        let cmds: Vec<Command> = (0..10).map(|i| cmd(i, 10)).collect();
        let batched = Batch::new(cmds.clone()).encoded_len() + MSG_HEADER_BYTES;
        let unbatched: usize = cmds
            .iter()
            .map(|c| c.encoded_len() + MSG_HEADER_BYTES)
            .sum();
        assert!(batched < unbatched, "{batched} !< {unbatched}");
    }

    #[test]
    fn policy_defaults_to_disabled() {
        assert_eq!(BatchPolicy::default(), BatchPolicy::DISABLED);
        assert_eq!(BatchPolicy::max(16).max_batch, 16);
        assert!(BatchPolicy::max(16).coalesces());
        assert!(!BatchPolicy::DISABLED.coalesces());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_cap_rejected() {
        let _ = BatchPolicy::max(0);
    }

    #[test]
    fn clones_share_storage_and_into_vec_recovers_it() {
        let b = Batch::new(vec![cmd(1, 8), cmd(2, 8)]);
        let c = b.clone();
        assert!(b.ptr_eq(&c), "clones must share the command vector");
        assert!(!b.ptr_eq(&Batch::new(vec![cmd(1, 8), cmd(2, 8)])));
        // Shared: into_vec falls back to one copy.
        let v = c.into_vec();
        assert_eq!(v.len(), 2);
        // Unique again: into_vec moves the storage out without copying.
        let payload_ptr = b.get(0).payload.as_ptr();
        let v = b.into_vec();
        assert_eq!(v[0].payload.as_ptr(), payload_ptr);
    }
}
