//! The seeded operation stream: the only input the program receives.
//!
//! Every value a `Put` stores starts with the index of the key it is
//! stored under, so a `Get` reply (and the final snapshot) can be
//! checked against "empty, or a value some Put to that key carried"
//! without keeping a history.

use bytes::Bytes;
use kvstore::{KvOp, KvStore};
use rsm_core::sm::StateMachine;

/// SplitMix64: small, fast, and fixed here so that a seed names the
/// same stream for as long as the benchmark exists.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Put { key: u64, nonce: u64 },
    Get { key: u64 },
}

/// One client thread's operation stream.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    keys: u64,
    read_permille: u64,
    value_bytes: usize,
}

impl OpStream {
    /// The stream of client thread `thread` under `seed`: uniform keys
    /// below `keys`, `read_permille` of every thousand operations Gets.
    ///
    /// # Panics
    ///
    /// Panics if `value_bytes` cannot hold the 16-byte value header.
    pub fn new(
        seed: u64,
        thread: usize,
        keys: u64,
        read_permille: u64,
        value_bytes: usize,
    ) -> Self {
        assert!(value_bytes >= 16, "values carry a 16-byte header");
        // Decorrelate threads: adjacent seeds must not give thread 1
        // of one run the stream of thread 0 of the next.
        let mut mixer = SplitMix64::new(seed ^ (thread as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        OpStream {
            rng: SplitMix64::new(mixer.next_u64()),
            keys,
            read_permille,
            value_bytes,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_u64();
        let key = (r >> 16) % self.keys;
        if (r & 0xffff) % 1000 < self.read_permille {
            Op::Get { key }
        } else {
            Op::Put {
                key,
                nonce: self.rng.next_u64(),
            }
        }
    }

    /// The command payload of `op`.
    pub fn payload(&self, op: Op) -> Bytes {
        match op {
            Op::Get { key } => KvOp::get(key_bytes(key)).encode(),
            Op::Put { key, nonce } => {
                let mut value = vec![b'.'; self.value_bytes];
                value[..8].copy_from_slice(&key.to_be_bytes());
                value[8..16].copy_from_slice(&nonce.to_be_bytes());
                KvOp::put(key_bytes(key), value).encode()
            }
        }
    }
}

fn key_bytes(key: u64) -> Bytes {
    Bytes::from(format!("k{key:08}"))
}

/// Whether `value` is one a Put to `key` carried.
fn value_belongs(key: u64, value: &[u8], value_bytes: usize) -> bool {
    value.len() == value_bytes && value[..8] == key.to_be_bytes()
}

/// Whether `result` is a correct reply to `op`: `[1]` for a Put;
/// for a Get `[0]` (absent) or `[1, value]` with a value of that key.
pub fn reply_ok(op: Op, result: &[u8], value_bytes: usize) -> bool {
    match op {
        Op::Put { .. } => result == [1],
        Op::Get { key } => match result.split_first() {
            Some((0, [])) => true,
            Some((1, value)) => value_belongs(key, value, value_bytes),
            _ => false,
        },
    }
}

/// Checks a `KvStore` snapshot: it restores, and holds nothing but
/// keys of the stream, each with a value of that key. Returns the
/// entry count.
pub fn check_snapshot(snapshot: &[u8], keys: u64, value_bytes: usize) -> Result<u64, String> {
    let mut store = KvStore::new();
    if !store.restore(snapshot) {
        return Err("snapshot does not restore".into());
    }
    let mut entries = 0;
    for key in 0..keys {
        if let Some(value) = store.get(&key_bytes(key)) {
            entries += 1;
            if !value_belongs(key, value, value_bytes) {
                return Err(format!("key {key} holds a value no Put to it carried"));
            }
        }
    }
    if entries != store.len() as u64 {
        return Err(format!(
            "snapshot holds {} keys no client wrote",
            store.len() as u64 - entries
        ));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_core::command::{Command, CommandId};
    use rsm_core::id::{ClientId, ReplicaId};

    fn ops(seed: u64, thread: usize, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(seed, thread, 1024, 900, 16);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(ops(7, 0, 500), ops(7, 0, 500));
        assert_ne!(ops(7, 0, 500), ops(8, 0, 500));
        assert_ne!(ops(7, 0, 500), ops(7, 1, 500));
        // Seed n thread 1 must not be seed n+1 thread 0.
        assert_ne!(ops(7, 1, 500), ops(8, 0, 500));
    }

    #[test]
    fn read_share_and_key_range_hold() {
        let all = ops(3, 0, 20_000);
        let gets = all.iter().filter(|o| matches!(o, Op::Get { .. })).count();
        assert!((17_600..18_400).contains(&gets), "{gets} gets of 20000");
        assert!(all.iter().all(|o| match *o {
            Op::Get { key } | Op::Put { key, .. } => key < 1024,
        }));
    }

    #[test]
    fn replies_and_snapshot_check_against_a_real_store() {
        let mut stream = OpStream::new(1, 0, 8, 300, 32);
        let mut store = KvStore::new();
        let client = ClientId::new(ReplicaId::new(0), 1);
        for seq in 1..=200u64 {
            let op = stream.next_op();
            let cmd = Command::new(CommandId::new(client, seq), stream.payload(op));
            assert!(reply_ok(op, &store.apply(&cmd), 32), "{op:?}");
        }
        let entries = check_snapshot(&store.snapshot(), 8, 32).expect("clean snapshot");
        assert_eq!(entries, store.len() as u64);
        // A value under the wrong key, a wrong length, a foreign key.
        assert!(!reply_ok(
            Op::Get { key: 1 },
            &[[1].as_slice(), &[0; 32]].concat(),
            32
        ));
        assert!(!reply_ok(Op::Put { key: 1, nonce: 0 }, &[0], 32));
        assert!(check_snapshot(&store.snapshot(), 8, 16).is_err());
        assert!(check_snapshot(&store.snapshot(), 2, 32).is_err());
    }
}
