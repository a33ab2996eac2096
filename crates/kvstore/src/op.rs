//! Key-value operations and their binary wire format.

use bytes::{BufMut, Bytes, BytesMut};

/// An operation on the replicated key-value store.
///
/// Encoded into a [`Command`] payload with a compact hand-rolled binary
/// format (tag byte, length-prefixed key, optional length-prefixed value),
/// standing in for the paper's Protocol Buffers encoding.
///
/// [`Command`]: rsm_core::Command
///
/// # Examples
///
/// ```
/// use kvstore::KvOp;
/// let op = KvOp::put("user:7", "alice");
/// let bytes = op.encode();
/// assert_eq!(KvOp::decode(&bytes).unwrap(), op);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Set `key` to `value`.
    Put {
        /// The key to write.
        key: Bytes,
        /// The value to store.
        value: Bytes,
    },
    /// Read the current value of `key`.
    Get {
        /// The key to read.
        key: Bytes,
    },
    /// Remove `key`.
    Delete {
        /// The key to remove.
        key: Bytes,
    },
    /// Compare-and-swap: set `key` to `value` only if its current value
    /// equals `expect` (`None` = key must be absent). The sharpest probe
    /// of linearizability: any reordering or duplicate execution breaks a
    /// CAS chain.
    Cas {
        /// The key to update.
        key: Bytes,
        /// Required current value (`None` = absent).
        expect: Option<Bytes>,
        /// The new value on success.
        value: Bytes,
    },
}

const TAG_PUT: u8 = 1;
const TAG_GET: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_CAS_ABSENT: u8 = 4;
const TAG_CAS_PRESENT: u8 = 5;

/// Error returned when a payload is not a valid encoded [`KvOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed key-value operation payload")
    }
}

impl std::error::Error for DecodeError {}

impl KvOp {
    /// Convenience constructor for a `Put`.
    pub fn put(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        KvOp::Put {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Convenience constructor for a `Get`.
    pub fn get(key: impl Into<Bytes>) -> Self {
        KvOp::Get { key: key.into() }
    }

    /// Convenience constructor for a `Cas`.
    pub fn cas(key: impl Into<Bytes>, expect: Option<Bytes>, value: impl Into<Bytes>) -> Self {
        KvOp::Cas {
            key: key.into(),
            expect,
            value: value.into(),
        }
    }

    /// Encodes the operation into a command payload, in a buffer sized
    /// exactly for it.
    pub fn encode(&self) -> Bytes {
        let (tag, chunks) = match self {
            KvOp::Put { key, value } => (TAG_PUT, [Some(key), Some(value), None]),
            KvOp::Get { key } => (TAG_GET, [Some(key), None, None]),
            KvOp::Delete { key } => (TAG_DELETE, [Some(key), None, None]),
            KvOp::Cas { key, expect, value } => match expect {
                None => (TAG_CAS_ABSENT, [Some(key), Some(value), None]),
                Some(e) => (TAG_CAS_PRESENT, [Some(key), Some(e), Some(value)]),
            },
        };
        let chunks = chunks.into_iter().flatten();
        let len = 1 + chunks.clone().map(|c| 4 + c.len()).sum::<usize>();
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u8(tag);
        for chunk in chunks {
            buf.put_u32(chunk.len() as u32);
            buf.put_slice(chunk);
        }
        buf.freeze()
    }

    /// Decodes an operation from a command payload, copying its key and
    /// values out of it (the owning wrapper around the one payload
    /// parser; the store itself executes on the borrowed form).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the payload is truncated, has an unknown
    /// tag, or carries trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let own = Bytes::copy_from_slice;
        Ok(match OpRef::parse(payload)? {
            OpRef::Put { key, value } => KvOp::Put {
                key: own(key),
                value: own(value),
            },
            OpRef::Get { key } => KvOp::Get { key: own(key) },
            OpRef::Delete { key } => KvOp::Delete { key: own(key) },
            OpRef::Cas { key, expect, value } => KvOp::Cas {
                key: own(key),
                expect: expect.map(own),
                value: own(value),
            },
        })
    }

    /// The key this operation touches.
    pub fn key(&self) -> &Bytes {
        match self {
            KvOp::Put { key, .. }
            | KvOp::Get { key }
            | KvOp::Delete { key }
            | KvOp::Cas { key, .. } => key,
        }
    }
}

/// A [`KvOp`] whose key and values are still windows into the command
/// payload it was parsed from: what the store executes, so that applying a
/// command copies only what the store keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpRef<'a> {
    Put {
        key: &'a [u8],
        value: &'a [u8],
    },
    Get {
        key: &'a [u8],
    },
    Delete {
        key: &'a [u8],
    },
    Cas {
        key: &'a [u8],
        expect: Option<&'a [u8]>,
        value: &'a [u8],
    },
}

impl<'a> OpRef<'a> {
    /// The payload parser — the only one; [`KvOp::decode`] wraps it.
    pub(crate) fn parse(payload: &'a [u8]) -> Result<Self, DecodeError> {
        let (&tag, mut rest) = payload.split_first().ok_or(DecodeError)?;
        let op = match tag {
            TAG_PUT => OpRef::Put {
                key: take_chunk(&mut rest)?,
                value: take_chunk(&mut rest)?,
            },
            TAG_GET => OpRef::Get {
                key: take_chunk(&mut rest)?,
            },
            TAG_DELETE => OpRef::Delete {
                key: take_chunk(&mut rest)?,
            },
            TAG_CAS_ABSENT => OpRef::Cas {
                key: take_chunk(&mut rest)?,
                expect: None,
                value: take_chunk(&mut rest)?,
            },
            TAG_CAS_PRESENT => OpRef::Cas {
                key: take_chunk(&mut rest)?,
                expect: Some(take_chunk(&mut rest)?),
                value: take_chunk(&mut rest)?,
            },
            _ => return Err(DecodeError),
        };
        if rest.is_empty() {
            Ok(op)
        } else {
            Err(DecodeError)
        }
    }
}

fn take_chunk<'a>(rest: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
    if rest.len() < 4 {
        return Err(DecodeError);
    }
    let (len_bytes, tail) = rest.split_at(4);
    let len = u32::from_be_bytes(len_bytes.try_into().unwrap()) as usize;
    if tail.len() < len {
        return Err(DecodeError);
    }
    let (chunk, tail) = tail.split_at(len);
    *rest = tail;
    Ok(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        for op in [
            KvOp::put("k", "v"),
            KvOp::get("k"),
            KvOp::Delete { key: "k".into() },
            KvOp::put("", ""),
            KvOp::put("key", vec![0u8; 1000]),
            KvOp::cas("k", None, "v0"),
            KvOp::cas("k", Some(Bytes::from_static(b"v0")), "v1"),
            KvOp::cas("", Some(Bytes::new()), ""),
        ] {
            assert_eq!(KvOp::decode(&op.encode()).unwrap(), op);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(KvOp::decode(&[]), Err(DecodeError));
        assert_eq!(KvOp::decode(&[9, 0, 0, 0, 0]), Err(DecodeError));
        assert_eq!(KvOp::decode(&[TAG_GET, 0, 0, 0, 5, b'a']), Err(DecodeError));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = KvOp::get("k").encode().to_vec();
        bytes.push(0);
        assert_eq!(KvOp::decode(&bytes), Err(DecodeError));
    }

    #[test]
    fn key_names_the_operand() {
        assert_eq!(KvOp::get("a").key().as_ref(), b"a");
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        fn some_op(which: u8, key: Vec<u8>, value: Vec<u8>, expect: Vec<u8>) -> KvOp {
            match which {
                0 => KvOp::put(key, value),
                1 => KvOp::get(key),
                2 => KvOp::Delete { key: key.into() },
                3 => KvOp::cas(key, None, value),
                _ => KvOp::cas(key, Some(expect.into()), value),
            }
        }

        /// The borrowed parser and the owning decoder say the same thing.
        fn agree(bytes: &[u8]) -> bool {
            match (OpRef::parse(bytes), KvOp::decode(bytes)) {
                (Err(_), Err(_)) => true,
                (Ok(OpRef::Put { key, value }), Ok(KvOp::Put { key: k, value: v })) => {
                    (key, value) == (&k[..], &v[..])
                }
                (Ok(OpRef::Get { key }), Ok(KvOp::Get { key: k }))
                | (Ok(OpRef::Delete { key }), Ok(KvOp::Delete { key: k })) => key == &k[..],
                (
                    Ok(OpRef::Cas { key, expect, value }),
                    Ok(KvOp::Cas {
                        key: k,
                        expect: e,
                        value: v,
                    }),
                ) => (key, expect, value) == (&k[..], e.as_deref(), &v[..]),
                _ => false,
            }
        }

        proptest! {
            /// Every variant round-trips through the exactly-sized buffer,
            /// empty keys and values included.
            #[test]
            fn roundtrip_random(key in proptest::collection::vec(any::<u8>(), 0..64),
                                value in proptest::collection::vec(any::<u8>(), 0..256),
                                expect in proptest::collection::vec(any::<u8>(), 0..64),
                                which in 0u8..5) {
                let op = some_op(which, key, value, expect);
                let bytes = op.encode();
                prop_assert_eq!(KvOp::decode(&bytes).unwrap(), op);
                prop_assert!(agree(&bytes));
            }

            #[test]
            fn parser_and_decoder_agree_on_arbitrary_bytes(
                bytes in proptest::collection::vec(any::<u8>(), 0..128)
            ) {
                prop_assert!(agree(&bytes));
            }

            /// Arbitrary bytes almost never parse; an encoding one edit
            /// away from a valid one sometimes does.
            #[test]
            fn parser_and_decoder_agree_next_to_valid_encodings(
                key in proptest::collection::vec(any::<u8>(), 0..8),
                value in proptest::collection::vec(any::<u8>(), 0..8),
                which in 0u8..5,
                edit in 0u8..3,
                at in any::<u16>(),
                byte in any::<u8>(),
            ) {
                let mut bytes = some_op(which, key, value.clone(), value).encode().to_vec();
                let at = usize::from(at) % bytes.len();
                match edit {
                    0 => bytes[at] = byte,
                    1 => bytes.truncate(at),
                    _ => bytes.push(byte),
                }
                prop_assert!(agree(&bytes));
            }
        }
    }
}
