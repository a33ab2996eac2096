//! The in-memory key-value store state machine.

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesMut};

use rsm_core::command::Command;
use rsm_core::sm::StateMachine;

use crate::op::OpRef;

/// A deterministic in-memory key-value store, the replicated state machine
/// of the paper's evaluation.
///
/// Reply format: one status byte (`1` = found / applied, `0` = not found /
/// malformed) followed by the read value for `Get`.
///
/// # What executing a command allocates
///
/// A command is executed on its payload as it arrived — keys and values
/// are parsed as borrowed windows, nothing is decoded into an owned
/// [`KvOp`](crate::KvOp) — and the store copies only what it keeps, into
/// plain owned buffers. A `Put` (or a successful `Cas`) to an existing
/// key copies the value into the buffer the key already holds: with
/// room enough, as in every same-size overwrite, that allocates and
/// frees **nothing**. A new key costs two allocations, one for the key
/// and one for the value, and so does each entry that
/// [`restore`](StateMachine::restore) rebuilds. The one-byte status
/// replies are constants; a `Get` allocates its reply and nothing else.
///
/// Stored values never alias a command payload, although sharing would
/// save the copy: on the socket plane a payload is a window into the
/// frame it arrived in, so a stored slice would keep a whole frame (64 KiB
/// for a full batch) alive for as long as its key kept that value.
///
/// # Examples
///
/// ```
/// use kvstore::{KvOp, KvStore};
/// use rsm_core::{Command, CommandId, ClientId, ReplicaId, StateMachine};
///
/// let mut store = KvStore::new();
/// let cid = ClientId::new(ReplicaId::new(0), 0);
/// store.apply(&Command::new(CommandId::new(cid, 1), KvOp::put("a", "1").encode()));
/// let out = store.apply(&Command::new(CommandId::new(cid, 2), KvOp::get("a").encode()));
/// assert_eq!(out[0], 1);
/// assert_eq!(&out[1..], b"1");
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct KvStore {
    map: BTreeMap<Box<[u8]>, Vec<u8>>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Reads a value directly (test observability; not part of the
    /// replicated interface).
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(Vec::as_slice)
    }
}

const NO: Bytes = Bytes::from_static(&[0]);
const YES: Bytes = Bytes::from_static(&[1]);

impl KvStore {
    fn read(&self, key: &[u8]) -> Bytes {
        match self.map.get(key) {
            Some(v) => {
                let mut out = BytesMut::with_capacity(1 + v.len());
                out.put_u8(1);
                out.put_slice(v);
                out.freeze()
            }
            None => NO,
        }
    }

    fn write(&mut self, key: &[u8], value: &[u8]) {
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.clear();
                slot.extend_from_slice(value);
            }
            None => {
                self.map.insert(key.into(), value.to_vec());
            }
        }
    }
}

impl StateMachine for KvStore {
    fn apply(&mut self, cmd: &Command) -> Bytes {
        match OpRef::parse(&cmd.payload) {
            Ok(OpRef::Put { key, value }) => {
                self.write(key, value);
                YES
            }
            Ok(OpRef::Get { key }) => self.read(key),
            Ok(OpRef::Delete { key }) => match self.map.remove(key) {
                Some(_) => YES,
                None => NO,
            },
            Ok(OpRef::Cas { key, expect, value }) => {
                if self.get(key) == expect {
                    self.write(key, value);
                    YES
                } else {
                    NO
                }
            }
            Err(_) => NO,
        }
    }

    fn snapshot(&self) -> Bytes {
        // Canonical full serialization: BTreeMap iteration order is
        // deterministic, so equal states yield equal snapshots.
        let mut buf = BytesMut::new();
        buf.put_u64(self.map.len() as u64);
        for (k, v) in &self.map {
            buf.put_u32(k.len() as u32);
            buf.put_slice(k);
            buf.put_u32(v.len() as u32);
            buf.put_slice(v);
        }
        buf.freeze()
    }

    fn reset(&mut self) {
        self.map.clear();
    }

    fn query(&self, cmd: &Command) -> Option<Bytes> {
        // Only a well-formed Get is a genuine read; anything else —
        // including a mutating op falsely marked read-only — is refused
        // so the caller replicates it instead.
        match OpRef::parse(&cmd.payload) {
            Ok(OpRef::Get { key }) => Some(self.read(key)),
            _ => None,
        }
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        // Parse the canonical serialization produced by `snapshot`.
        fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            if rest.len() < n {
                return None;
            }
            let (head, tail) = rest.split_at(n);
            *rest = tail;
            Some(head)
        }
        let mut rest = snapshot;
        let Some(count_bytes) = take(&mut rest, 8) else {
            return false;
        };
        let count = u64::from_be_bytes(count_bytes.try_into().expect("8 bytes"));
        let mut map: BTreeMap<Box<[u8]>, Vec<u8>> = BTreeMap::new();
        for _ in 0..count {
            let Some(klen) = take(&mut rest, 4) else {
                return false;
            };
            let klen = u32::from_be_bytes(klen.try_into().expect("4 bytes")) as usize;
            let Some(k) = take(&mut rest, klen) else {
                return false;
            };
            // `snapshot` writes each key once, in increasing order: a
            // repeated or out-of-order key is not a snapshot it produced.
            if map.last_key_value().is_some_and(|(last, _)| **last >= *k) {
                return false;
            }
            let Some(vlen) = take(&mut rest, 4) else {
                return false;
            };
            let vlen = u32::from_be_bytes(vlen.try_into().expect("4 bytes")) as usize;
            let Some(v) = take(&mut rest, vlen) else {
                return false;
            };
            map.insert(k.into(), v.to_vec());
        }
        if !rest.is_empty() {
            return false;
        }
        self.map = map;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::KvOp;
    use rsm_core::command::CommandId;
    use rsm_core::id::{ClientId, ReplicaId};

    fn cmd(seq: u64, op: &KvOp) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            op.encode(),
        )
    }

    #[test]
    fn put_get_delete_cycle() {
        let mut s = KvStore::new();
        assert_eq!(s.apply(&cmd(1, &KvOp::put("k", "v")))[0], 1);
        let got = s.apply(&cmd(2, &KvOp::get("k")));
        assert_eq!(&got[..], b"\x01v");
        assert_eq!(s.apply(&cmd(3, &KvOp::Delete { key: "k".into() }))[0], 1);
        assert_eq!(s.apply(&cmd(4, &KvOp::get("k")))[0], 0);
        assert_eq!(s.apply(&cmd(5, &KvOp::Delete { key: "k".into() }))[0], 0);
    }

    #[test]
    fn malformed_payload_is_a_noop_answer() {
        let mut s = KvStore::new();
        let bad = Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), 1),
            Bytes::from_static(b"\xFFjunk"),
        );
        assert_eq!(s.apply(&bad)[0], 0);
        assert!(s.is_empty());
    }

    #[test]
    fn snapshots_equal_iff_states_equal() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.apply(&cmd(1, &KvOp::put("x", "1")));
        a.apply(&cmd(2, &KvOp::put("y", "2")));
        // Same state reached by a different command order.
        b.apply(&cmd(1, &KvOp::put("y", "2")));
        b.apply(&cmd(2, &KvOp::put("x", "1")));
        assert_eq!(a.snapshot(), b.snapshot());
        b.apply(&cmd(3, &KvOp::put("x", "9")));
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn restore_accepts_exactly_what_snapshot_produces() {
        let mut a = KvStore::new();
        a.apply(&cmd(1, &KvOp::put("b", "2")));
        a.apply(&cmd(2, &KvOp::put("a", "1")));
        let snap = a.snapshot();
        let mut b = KvStore::new();
        assert!(b.restore(&snap));
        assert_eq!(b.snapshot(), snap);
        // Two entries, keys in the given order.
        let frame = |keys: [&[u8]; 2]| {
            let mut buf = BytesMut::new();
            buf.put_u64(2);
            for k in keys {
                buf.put_u32(k.len() as u32);
                buf.put_slice(k);
                buf.put_u32(1);
                buf.put_slice(b"v");
            }
            buf.freeze()
        };
        assert!(b.restore(&frame([b"a", b"b"])));
        for bad in [frame([b"a", b"a"]), frame([b"b", b"a"])] {
            let mut c = KvStore::new();
            c.apply(&cmd(1, &KvOp::put("k", "v")));
            assert!(!c.restore(&bad), "{bad:?}");
            assert_eq!(
                c.get(b"k"),
                Some(&b"v"[..]),
                "a refused restore keeps the state"
            );
        }
    }

    #[test]
    fn reset_restores_empty() {
        let mut s = KvStore::new();
        s.apply(&cmd(1, &KvOp::put("x", "1")));
        s.reset();
        assert_eq!(s.snapshot(), KvStore::new().snapshot());
    }

    #[test]
    fn query_serves_gets_and_refuses_everything_else() {
        let mut s = KvStore::new();
        s.apply(&cmd(1, &KvOp::put("k", "v")));
        let before = s.snapshot();
        // A Get query answers exactly like apply would, changing nothing.
        let got = s.query(&cmd(2, &KvOp::get("k"))).unwrap();
        assert_eq!(&got[..], b"\x01v");
        assert_eq!(s.query(&cmd(3, &KvOp::get("zz"))).unwrap()[..], [0]);
        assert_eq!(s.snapshot(), before, "a query changes nothing");
        // Mutating ops (even falsely marked read-only upstream) refuse.
        assert!(s.query(&cmd(4, &KvOp::put("k", "w"))).is_none());
        assert!(s
            .query(&cmd(5, &KvOp::Delete { key: "k".into() }))
            .is_none());
        let bad = Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), 6),
            Bytes::from_static(b"\xFFjunk"),
        );
        assert!(s.query(&bad).is_none());
        assert_eq!(s.get(b"k"), Some(&b"v"[..]), "state untouched");
    }

    #[test]
    fn overwrite_updates_value() {
        let mut s = KvStore::new();
        s.apply(&cmd(1, &KvOp::put("k", "old")));
        s.apply(&cmd(2, &KvOp::put("k", "new")));
        assert_eq!(s.get(b"k"), Some(&b"new"[..]));
        assert_eq!(s.len(), 1);
    }

    /// The `Put` of `key` to `value`, as a window into a frame-sized
    /// buffer — what a command's payload is on the socket plane.
    fn put_inside_a_frame(key: &[u8], value: &[u8]) -> (Bytes, Command) {
        let op = KvOp::put(key.to_vec(), value.to_vec()).encode();
        let mut frame = vec![0xEE; 64 << 10];
        frame[1000..1000 + op.len()].copy_from_slice(&op);
        let frame = Bytes::from(frame);
        let payload = frame.slice(1000..1000 + op.len());
        let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), 1);
        (frame, Command::new(id, payload))
    }

    #[test]
    fn stored_values_never_alias_the_command_payload() {
        let mut s = KvStore::new();
        let (frame, put) = put_inside_a_frame(b"k", &[7u8; 1024]);
        assert_eq!(s.apply(&put)[..], [1]);
        let (key, value) = s.map.iter().next().unwrap();
        assert_eq!(value.as_slice(), &[7u8; 1024]);
        let frame = frame.as_ptr_range();
        assert!(
            !frame.contains(&value.as_ptr()),
            "the stored value keeps a 64 KiB frame alive"
        );
        assert!(!frame.contains(&key.as_ptr()));
    }

    #[test]
    fn an_overwrite_keeps_the_stored_key() {
        let mut s = KvStore::new();
        s.apply(&cmd(1, &KvOp::put("k", "old")));
        let stored_key = s.map.keys().next().unwrap().as_ptr();
        s.apply(&put_inside_a_frame(b"k", b"new").1);
        assert_eq!(s.map.keys().next().unwrap().as_ptr(), stored_key);
        let expect = Some(Bytes::from_static(b"new"));
        assert_eq!(s.apply(&cmd(3, &KvOp::cas("k", expect, "newer")))[..], [1]);
        assert_eq!(s.map.keys().next().unwrap().as_ptr(), stored_key);
        assert_eq!(s.get(b"k"), Some(&b"newer"[..]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn a_same_length_overwrite_reuses_the_stored_value_buffer() {
        let mut s = KvStore::new();
        s.apply(&cmd(1, &KvOp::put("k", "old")));
        let stored_value = s.map[&b"k"[..]].as_ptr();
        s.apply(&put_inside_a_frame(b"k", b"new").1);
        assert_eq!(s.map[&b"k"[..]].as_ptr(), stored_value);
        let expect = Some(Bytes::from_static(b"new"));
        assert_eq!(s.apply(&cmd(3, &KvOp::cas("k", expect, "cas")))[..], [1]);
        assert_eq!(s.map[&b"k"[..]].as_ptr(), stored_value);
        assert_eq!(s.get(b"k"), Some(&b"cas"[..]));
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Today's semantics, written directly on `KvOp::decode` and a
        /// `BTreeMap`: what the store must keep answering whatever it
        /// does to get there.
        #[derive(Default)]
        struct Model {
            map: BTreeMap<Vec<u8>, Vec<u8>>,
        }

        impl Model {
            fn read(&self, key: &[u8]) -> Vec<u8> {
                match self.map.get(key) {
                    Some(v) => [&[1], &v[..]].concat(),
                    None => vec![0],
                }
            }

            fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
                let status = |ok: bool| vec![u8::from(ok)];
                match KvOp::decode(payload) {
                    Ok(KvOp::Put { key, value }) => {
                        self.map.insert(key.to_vec(), value.to_vec());
                        status(true)
                    }
                    Ok(KvOp::Get { key }) => self.read(&key),
                    Ok(KvOp::Delete { key }) => status(self.map.remove(&key[..]).is_some()),
                    Ok(KvOp::Cas { key, expect, value }) => {
                        let current = self.map.get(&key[..]).map(|v| &v[..]);
                        let matches = current == expect.as_deref();
                        if matches {
                            self.map.insert(key.to_vec(), value.to_vec());
                        }
                        status(matches)
                    }
                    Err(_) => status(false),
                }
            }

            fn query(&self, payload: &[u8]) -> Option<Vec<u8>> {
                match KvOp::decode(payload) {
                    Ok(KvOp::Get { key }) => Some(self.read(&key)),
                    _ => None,
                }
            }

            fn snapshot(&self) -> Vec<u8> {
                let mut out = (self.map.len() as u64).to_be_bytes().to_vec();
                for (k, v) in &self.map {
                    out.extend_from_slice(&(k.len() as u32).to_be_bytes());
                    out.extend_from_slice(k);
                    out.extend_from_slice(&(v.len() as u32).to_be_bytes());
                    out.extend_from_slice(v);
                }
                out
            }
        }

        /// One of four values, the empty one included, so that a `Cas`
        /// meets its expectation often enough to matter.
        fn small_value(pick: u8) -> Vec<u8> {
            vec![pick % 4; usize::from(pick % 4)]
        }

        /// A payload on one of 16 keys: the five well-formed shapes, a
        /// trailing byte, a truncation, and raw junk.
        fn payload(kind: u8, k: u8, a: u8, b: u8, junk: &[u8]) -> Bytes {
            let key = vec![k];
            let op = match kind {
                0 | 5 | 6 => KvOp::put(key, small_value(a)),
                1 => KvOp::get(key),
                2 => KvOp::Delete { key: key.into() },
                3 => KvOp::cas(key, None, small_value(a)),
                4 => KvOp::cas(key, Some(small_value(b).into()), small_value(a)),
                _ => return Bytes::copy_from_slice(junk),
            };
            let mut bytes = op.encode().to_vec();
            match kind {
                5 => bytes.push(b),
                6 => bytes.truncate(bytes.len() - 1),
                _ => {}
            }
            bytes.into()
        }

        proptest! {
            /// Replicas applying the same op sequence converge (determinism).
            #[test]
            fn determinism(ops in proptest::collection::vec((0u8..3, 0u8..16, any::<u8>()), 0..200)) {
                let mut a = KvStore::new();
                let mut b = KvStore::new();
                for (i, (which, k, v)) in ops.iter().enumerate() {
                    let key = vec![*k];
                    let op = match which {
                        0 => KvOp::put(key, vec![*v]),
                        1 => KvOp::get(key),
                        _ => KvOp::Delete { key: key.into() },
                    };
                    let c = cmd(i as u64, &op);
                    let ra = a.apply(&c);
                    let rb = b.apply(&c);
                    prop_assert_eq!(ra, rb);
                }
                prop_assert_eq!(a.snapshot(), b.snapshot());
            }

            /// Every reply, every query answer and the final snapshot are
            /// the reference model's.
            #[test]
            fn store_matches_the_reference_model(
                ops in proptest::collection::vec(
                    (0u8..8, 0u8..16, any::<u8>(), any::<u8>(),
                     proptest::collection::vec(any::<u8>(), 0..12)),
                    0..200,
                )
            ) {
                let mut store = KvStore::new();
                let mut model = Model::default();
                for (i, (kind, k, a, b, junk)) in ops.iter().enumerate() {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), i as u64);
                    let c = Command::new(id, payload(*kind, *k, *a, *b, junk));
                    prop_assert_eq!(store.query(&c).map(|r| r.to_vec()), model.query(&c.payload));
                    prop_assert_eq!(store.apply(&c).to_vec(), model.apply(&c.payload));
                    prop_assert_eq!(store.len(), model.map.len());
                }
                prop_assert_eq!(store.snapshot().to_vec(), model.snapshot());
            }
        }
    }
}
