//! Cross-shard snapshot-read coordination.
//!
//! A multi-key read is split into one pinned single-key `Get` per key
//! (see [`Command::read_at`]), all carrying the same cut timestamp; the
//! coordinator tracks the outstanding parts and assembles the snapshot
//! when the last one answers. Abandon-and-retry is the caller's
//! responsibility: a lost part (crashed replica, reconfiguration) means
//! the *whole* snapshot retries under a fresh cut, because a stale cut
//! may already be below the shards' stable timestamps and thus no longer
//! exactly servable.

use std::collections::HashMap;

use bytes::Bytes;
use kvstore::KvOp;
use rsm_core::command::{Command, CommandId};
use rsm_core::time::Micros;

/// A fully assembled cross-shard snapshot read.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotResult {
    /// Caller-visible handle returned by [`SnapshotCoordinator::begin`].
    pub(crate) token: u64,
    /// When the multi-key read was first issued (virtual time).
    pub(crate) issued: Micros,
    /// When the last part's reply arrived.
    pub(crate) replied: Micros,
    /// The keys, in the order the caller passed them.
    pub(crate) keys: Vec<Bytes>,
    /// Per-key value at the cut (`None` = key absent at `t`).
    pub(crate) values: Vec<Option<Bytes>>,
    /// Per-key owning shard (parallel to `keys`).
    pub(crate) shards: Vec<usize>,
}

#[derive(Debug)]
struct InFlight {
    issued: Micros,
    keys: Vec<Bytes>,
    shards: Vec<usize>,
    values: Vec<Option<Option<Bytes>>>,
    remaining: usize,
}

/// Tracks multi-key snapshot reads in flight and assembles their parts.
#[derive(Debug, Default)]
pub(crate) struct SnapshotCoordinator {
    next_token: u64,
    /// Which (snapshot, part) a single-key command id belongs to.
    parts: HashMap<CommandId, (u64, usize)>,
    inflight: HashMap<u64, InFlight>,
}

impl SnapshotCoordinator {
    /// Starts a snapshot read of `keys` (each tagged with its owning
    /// shard) at cut timestamp `at`. `next_id` mints one fresh
    /// [`CommandId`] per part. Returns the token identifying the read
    /// and the per-shard pinned `Get` commands to submit.
    pub(crate) fn begin(
        &mut self,
        keys: Vec<(usize, Bytes)>,
        at: Micros,
        issued: Micros,
        mut next_id: impl FnMut() -> CommandId,
    ) -> (u64, Vec<(usize, Command)>) {
        assert!(!keys.is_empty(), "a snapshot read needs at least one key");
        self.next_token += 1;
        let token = self.next_token;
        let mut cmds = Vec::with_capacity(keys.len());
        let mut shards = Vec::with_capacity(keys.len());
        let mut key_list = Vec::with_capacity(keys.len());
        for (part, (shard, key)) in keys.into_iter().enumerate() {
            let id = next_id();
            self.parts.insert(id, (token, part));
            cmds.push((
                shard,
                Command::read_at(id, KvOp::get(key.clone()).encode(), at),
            ));
            shards.push(shard);
            key_list.push(key);
        }
        let remaining = key_list.len();
        self.inflight.insert(
            token,
            InFlight {
                issued,
                keys: key_list,
                shards,
                values: vec![None; remaining],
                remaining,
            },
        );
        (token, cmds)
    }

    /// Records one part's reply (`result` in the kv store's reply
    /// encoding: status byte, then the value when found). Returns the
    /// assembled snapshot when this was the last outstanding part;
    /// replies for abandoned or unknown commands are ignored.
    pub(crate) fn on_reply(
        &mut self,
        id: CommandId,
        result: &Bytes,
        now: Micros,
    ) -> Option<SnapshotResult> {
        let (token, part) = self.parts.remove(&id)?;
        let read = self.inflight.get_mut(&token)?;
        if read.values[part].is_none() {
            read.remaining -= 1;
        }
        let value = match result.first() {
            Some(1) => Some(Bytes::copy_from_slice(&result[1..])),
            _ => None,
        };
        read.values[part] = Some(value);
        if read.remaining > 0 {
            return None;
        }
        let read = self.inflight.remove(&token).expect("completed read exists");
        Some(SnapshotResult {
            token,
            issued: read.issued,
            replied: now,
            keys: read.keys,
            values: read
                .values
                .into_iter()
                .map(|v| v.expect("all parts arrived"))
                .collect(),
            shards: read.shards,
        })
    }

    /// Abandons an in-flight read (timeout) so the caller can retry the
    /// whole snapshot under a fresh cut. Late replies to the abandoned
    /// parts are dropped silently.
    pub(crate) fn abandon(&mut self, token: u64) {
        self.inflight.remove(&token);
        self.parts.retain(|_, &mut (t, _)| t != token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_core::id::{ClientId, ReplicaId};

    fn ids() -> impl FnMut() -> CommandId {
        let mut seq = 0;
        move || {
            seq += 1;
            CommandId::new(ClientId::new(ReplicaId::new(0), 7), seq)
        }
    }

    fn found(v: &[u8]) -> Bytes {
        let mut r = vec![1u8];
        r.extend_from_slice(v);
        Bytes::from(r)
    }

    #[test]
    fn parts_assemble_into_one_snapshot() {
        let mut c = SnapshotCoordinator::default();
        let keys = vec![(0, Bytes::from_static(b"a")), (2, Bytes::from_static(b"b"))];
        let (token, cmds) = c.begin(keys, 5_000, 100, ids());
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].0, 0);
        assert_eq!(cmds[1].0, 2);
        // Every part is a pinned read at the same cut.
        for (_, cmd) in &cmds {
            assert!(cmd.read_only);
            assert_eq!(cmd.read_at, Some(5_000));
        }
        assert!(c.on_reply(cmds[1].1.id, &found(b"vb"), 200).is_none());
        let snap = c
            .on_reply(cmds[0].1.id, &Bytes::from_static(&[0]), 250)
            .expect("complete");
        assert_eq!(snap.issued, 100);
        assert_eq!(snap.replied, 250);
        assert_eq!(snap.values, vec![None, Some(Bytes::from_static(b"vb"))]);
        assert_eq!(snap.shards, vec![0, 2]);
        assert_eq!(token, snap.token);
        assert!(c.inflight.is_empty() && c.parts.is_empty());
    }

    #[test]
    fn abandoned_reads_drop_late_replies() {
        let mut c = SnapshotCoordinator::default();
        let keys = vec![(1, Bytes::from_static(b"x")), (3, Bytes::from_static(b"y"))];
        let (token, cmds) = c.begin(keys, 9_000, 10, ids());
        assert!(c.on_reply(cmds[0].1.id, &found(b"v"), 20).is_none());
        c.abandon(token);
        // The straggler's reply no longer completes anything.
        assert!(c.on_reply(cmds[1].1.id, &found(b"v2"), 30).is_none());
        assert!(c.inflight.is_empty() && c.parts.is_empty());
    }

    #[test]
    fn concurrent_snapshots_do_not_interfere() {
        let mut c = SnapshotCoordinator::default();
        let mut mint = ids();
        let (t1, c1) = c.begin(vec![(0, Bytes::from_static(b"a"))], 1_000, 1, &mut mint);
        let (t2, c2) = c.begin(vec![(0, Bytes::from_static(b"a"))], 2_000, 2, &mut mint);
        assert_eq!(c.inflight.len(), 2);
        let s2 = c
            .on_reply(c2[0].1.id, &found(b"late"), 40)
            .expect("second completes");
        assert_eq!((s2.token, s2.issued), (t2, 2));
        assert_eq!(s2.values, vec![Some(Bytes::from_static(b"late"))]);
        let s1 = c
            .on_reply(c1[0].1.id, &found(b"early"), 50)
            .expect("first completes");
        assert_eq!((s1.token, s1.issued), (t1, 1));
        assert_eq!(s1.values, vec![Some(Bytes::from_static(b"early"))]);
    }
}
