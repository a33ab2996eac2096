//! Wire format: framing, binary codecs, and size accounting.
//!
//! Everything replicas exchange over a real transport is carried in
//! **length-prefixed frames** with a fixed 32-byte header
//! ([`MSG_HEADER_BYTES`]) followed by the message payload:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic        0x52534D57 ("RSMW", big-endian)
//!      4     2  version      wire format version (WIRE_VERSION)
//!      6     2  flags        reserved; zero on send, ignored on receive
//!      8     2  from         sending replica id
//!     10     2  to           destination replica id
//!     12     4  payload_len  payload bytes following the header
//!     16     8  seq          per-link frame sequence (diagnostics)
//!     24     4  checksum     XXH64 low 32 bits over the payload
//!     28     4  reserved     zero
//! ```
//!
//! All integers are big-endian. The payload is the [`WireEncode`]
//! encoding of one protocol message. Each message type is declared once,
//! by [`wire_table!`](crate::wire_table): an enum's rows read
//! `tag => Variant { field: Type, … }`, and a variant encodes as its
//! row's one-byte tag followed by its fields in row order; a struct
//! encodes as its fields in declaration order. A decoder must consume
//! the payload **exactly** — leftover bytes are a
//! [`WireError::TrailingBytes`] error, so a frame can never smuggle
//! garbage past the codec.
//!
//! # Versioning rule
//!
//! The format is version-gated, not self-describing: a receiver rejects
//! any frame whose `version` differs from its own [`WIRE_VERSION`]
//! ([`WireError::BadVersion`]) — there is no negotiation and no
//! cross-version decoding. A tag lives in exactly one row of its enum's
//! table; a second row under it fails the build.
//!
//! * Appending a row under an unused tag needs no bump: an older
//!   receiver rejects the new variant cleanly as [`WireError::BadTag`].
//! * Editing an existing row's tag or fields, a struct's fields, or the
//!   frame layout needs a [`WIRE_VERSION`] bump, and the golden vectors
//!   of `tests/codec_roundtrip.rs` re-pinned in the same commit.
//! * The reserved `flags` field (zero on send, ignored on receive) is the
//!   only other evolution within a version.
//!
//! Version 2 changed the checksum function (to the low 32 bits of XXH64)
//! and nothing else: layout, field order and tags are those of version 1.
//! Version 3 added a probe sequence number to Clock-RSM's `ClockProbe`
//! (the echo, appended under tag 12, names it). Version 5 moved Clock-RSM's
//! catch-up onto the shared catch-up rows (tags 6 and 7; 8, 9, 11 unused).
//!
//! # Zero-copy discipline
//!
//! Decoding is zero-copy for bulk data: a [`WireReader`] wraps the
//! received payload [`Bytes`] and hands out sub-slices sharing the same
//! backing storage ([`WireReader::take_bytes`]), so a decoded command's
//! payload references the receive buffer instead of copying it. On the
//! encode side, a broadcast encodes its message **once** and shares the
//! encoded buffer across per-peer frames (only the 32-byte header is
//! per-peer); [`WireMsg::shares_encoding`] is the hook a send path uses
//! to recognize the clones of one broadcast (batch messages compare
//! their [`Batch`] by `Arc` identity).
//!
//! # Examples
//!
//! ```
//! use rsm_core::wire::{decode_payload, encode_payload, WireDecode, WireEncode};
//! use rsm_core::{Command, CommandId, ClientId, ReplicaId};
//! use bytes::Bytes;
//!
//! let cmd = Command::new(
//!     CommandId::new(ClientId::new(ReplicaId::new(1), 7), 42),
//!     Bytes::from_static(b"set k v"),
//! );
//! let payload = encode_payload(&cmd);
//! let back: Command = decode_payload(payload).unwrap();
//! assert_eq!(back, cmd);
//! ```

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::batch::Batch;
use crate::command::{Command, CommandId};
use crate::config::Epoch;
use crate::id::{ClientId, ReplicaId};
use crate::time::Timestamp;

/// Number of bytes a message occupies on the wire: its frame header
/// plus its payload, [`MSG_HEADER_BYTES`] `+` [`WireEncode::encoded_len`].
///
/// The discrete-event simulator's CPU model (used by the throughput
/// experiments, Figure 8 of the paper) charges per-byte costs for message
/// sending and receiving, so it prices the bytes a replica would send.
/// [`wire_table!`](crate::wire_table) implements it for every type it
/// declares.
pub trait WireSize {
    /// Frame header plus encoded payload, in bytes.
    fn wire_size(&self) -> usize;
}

/// Fixed per-message frame header size: magic, version, route, length,
/// sequence, checksum (see the [module docs](self) for the exact layout).
pub const MSG_HEADER_BYTES: usize = 32;

/// Frame magic, `"RSMW"` big-endian.
pub const FRAME_MAGIC: u32 = 0x5253_4D57;

/// Current wire format version (see the module-level versioning rule).
pub const WIRE_VERSION: u16 = 5;

/// Upper bound on a frame's payload length; a header announcing more is
/// rejected before any allocation (a corrupt or hostile length prefix
/// must not OOM the receiver).
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// The frame of an empty message: its header alone.
impl WireSize for () {
    fn wire_size(&self) -> usize {
        MSG_HEADER_BYTES + self.encoded_len()
    }
}

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value it promised.
    Truncated,
    /// The frame header's magic was not [`FRAME_MAGIC`].
    BadMagic(u32),
    /// The frame's wire version differs from [`WIRE_VERSION`].
    BadVersion(u16),
    /// An enum payload carried an unknown variant tag.
    BadTag {
        /// The type being decoded.
        ty: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The payload checksum did not match the header's.
    BadChecksum,
    /// Bytes were left over after the payload decoded completely.
    TrailingBytes(usize),
    /// The header announced a payload larger than [`MAX_FRAME_PAYLOAD`].
    FrameTooLarge(usize),
    /// A [`Batch`] announced zero commands (batches are non-empty).
    EmptyBatch,
    /// Every value decoded, but together they contradict each other
    /// (e.g. a dedup window naming one client twice); says which rule.
    Inconsistent(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated mid-value"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => {
                write!(f, "wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::BadTag { ty, tag } => write!(f, "unknown {ty} tag {tag}"),
            WireError::BadChecksum => write!(f, "payload checksum mismatch"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::FrameTooLarge(n) => {
                write!(f, "payload of {n} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
            WireError::EmptyBatch => write!(f, "batch of zero commands"),
            WireError::Inconsistent(rule) => write!(f, "inconsistent frame: {rule}"),
        }
    }
}

impl std::error::Error for WireError {}

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

fn xxh64_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh64_round(0, acc))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

fn le_u64(b: &[u8]) -> u64 {
    // Callers pass exactly 8 bytes: a `chunks_exact(8)` lane or `tail[..8]` after `len >= 8`.
    u64::from_le_bytes(b.try_into().expect("8-byte lane"))
}

/// XXH64 with seed 0, exactly as the xxHash specification gives it: four
/// independent accumulators over 32-byte stripes (what lets the CPU run
/// the multiplies in parallel instead of one dependent multiply per
/// byte), then the 8-, 4- and 1-byte tail steps and the avalanche.
fn xxh64(data: &[u8]) -> u64 {
    let stripes = data.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut h = if data.len() >= 32 {
        let mut v = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            0u64.wrapping_sub(PRIME64_1),
        ];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *acc = xxh64_round(*acc, le_u64(lane));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, xxh64_merge)
    } else {
        PRIME64_5
    };
    h = h.wrapping_add(data.len() as u64);
    while tail.len() >= 8 {
        h = (h ^ xxh64_round(0, le_u64(&tail[..8])))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        // `tail[..4]` is exactly 4 bytes: the branch requires `len >= 4`.
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4-byte word"));
        h = (h ^ u64::from(word).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// Payload checksum: the low 32 bits of XXH64 (seed 0) — runs at memory
/// speed, catches the torn and bit-flipped frames a length-prefixed
/// stream is exposed to; not a cryptographic integrity guarantee. The
/// function is part of the wire format: changing it requires bumping
/// [`WIRE_VERSION`].
pub fn checksum(payload: &[u8]) -> u32 {
    xxh64(payload) as u32
}

/// A fallible big-endian read cursor over a received payload.
///
/// Wraps [`Bytes`] so bulk reads ([`take_bytes`](WireReader::take_bytes))
/// share the receive buffer's storage instead of copying.
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// A reader over `buf`.
    pub fn new(buf: Bytes) -> Self {
        WireReader { buf }
    }

    /// Bytes left to consume.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.len() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.need(2)?;
        Ok(self.buf.get_u16())
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    /// Reads a `bool` encoded as one byte (0 or 1; anything else is a
    /// [`WireError::BadTag`]).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { ty: "bool", tag }),
        }
    }

    /// Takes the next `len` bytes **zero-copy**: the returned [`Bytes`]
    /// shares the receive buffer's backing storage.
    pub fn take_bytes(&mut self, len: usize) -> Result<Bytes, WireError> {
        self.need(len)?;
        Ok(self.buf.split_to(len))
    }
}

/// A value with a canonical binary encoding (see the [module docs](self)
/// for the format rules).
pub trait WireEncode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// The number of bytes [`encode`](WireEncode::encode) appends. Every
    /// codec in this workspace states it without encoding: the primitives
    /// below beside their `encode`, and [`wire_table!`](crate::wire_table)
    /// from its rows. The default measures one encode.
    fn encoded_len(&self) -> usize {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// A value decodable from its [`WireEncode`] encoding.
pub trait WireDecode: Sized {
    /// Decodes one value, consuming exactly its encoding from `r`.
    fn decode(r: &mut WireReader) -> Result<Self, WireError>;
}

/// A message type a transport can frame: codec plus the shared-encoding
/// test that powers encode-once broadcasts.
pub trait WireMsg: WireEncode + WireDecode + Clone + Send + 'static {
    /// Whether `self` is a clone of `prev` with an identical encoding, so
    /// a send path may reuse `prev`'s encoded buffer instead of encoding
    /// again. Must only return `true` when the encodings are literally
    /// byte-identical; batch-bearing messages implement this by comparing
    /// their [`Batch`] by `Arc` identity plus the
    /// scalar fields, which is exactly the shape of a broadcast's clones.
    /// `false` is always safe (it merely re-encodes).
    fn shares_encoding(&self, _prev: &Self) -> bool {
        false
    }
}

/// Encodes a value into a fresh payload buffer.
pub fn encode_payload<M: WireEncode + ?Sized>(msg: &M) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    msg.encode(&mut buf);
    buf.freeze()
}

/// Decodes a complete payload, rejecting leftover bytes
/// ([`WireError::TrailingBytes`]).
pub fn decode_payload<M: WireDecode>(payload: Bytes) -> Result<M, WireError> {
    let mut r = WireReader::new(payload);
    let msg = M::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

/// The buffer type of [`WireEncode::encode`], named here so that
/// [`wire_table!`](crate::wire_table) expands in crates that do not
/// depend on `bytes`.
#[doc(hidden)]
pub use bytes::BytesMut as EncodeBuf;

/// Declares a message type and generates its codec from one table.
///
/// An enum's rows read `tag => Variant { field: Type, … }` or
/// `tag => Variant(Type)`, each with its doc comments. The macro declares
/// the enum exactly as written, minus the tags, and generates:
///
/// * [`WireEncode`]: the tag byte, then the fields in row order; its
///   [`encoded_len`](WireEncode::encoded_len) is one byte plus the
///   fields' lengths, summed without encoding;
/// * [`WireDecode`]: the same order back; a tag no row names is
///   [`WireError::BadTag`] with the enum's name;
/// * [`WireSize`]: [`MSG_HEADER_BYTES`] plus the encoded length;
/// * `TAGS`: every tag, in row order.
///
/// Two rows under one tag fail the build. A struct
/// (`struct Name { field: Type, … }`) gets the same codec without a tag:
/// its fields in declaration order. The generated impls bound every
/// generic parameter by [`WireEncode`], or by [`WireDecode`] for the
/// decoder.
///
/// ```
/// use rsm_core::wire::{
///     decode_payload, encode_payload, WireEncode, WireSize, MSG_HEADER_BYTES,
/// };
///
/// rsm_core::wire_table! {
///     /// A toy protocol.
///     #[derive(Debug, PartialEq)]
///     pub enum Toy {
///         /// Asks for `n`.
///         0 => Ask { n: u16 },
///         /// Answers.
///         7 => Answer(bool),
///     }
/// }
///
/// let bytes = encode_payload(&Toy::Ask { n: 5 });
/// assert_eq!(bytes[..], [0, 0, 5]);
/// assert_eq!(Toy::Ask { n: 5 }.encoded_len(), 3);
/// assert_eq!(Toy::Answer(true).wire_size(), MSG_HEADER_BYTES + 2);
/// assert_eq!(decode_payload::<Toy>(bytes), Ok(Toy::Ask { n: 5 }));
/// assert_eq!(Toy::TAGS, [0, 7]);
/// ```
///
/// ```compile_fail,E0081
/// rsm_core::wire_table! {
///     pub enum Clash {
///         1 => A { n: u64 },
///         1 => B { n: u64 },
///     }
/// }
/// ```
#[macro_export]
macro_rules! wire_table {
    // The frame size of a declared type: header plus encoded length.
    (@size $name:ident $(<$($gen:ident),+>)?) => {
        impl $(<$($gen: $crate::wire::WireEncode),+>)? $crate::wire::WireSize
            for $name $(<$($gen),+>)?
        {
            fn wire_size(&self) -> usize {
                $crate::wire::MSG_HEADER_BYTES + $crate::wire::WireEncode::encoded_len(self)
            }
        }
    };
    // One variant's binding pattern, encoder, length and decoder, by its shape.
    (@pat $name:ident $variant:ident $value:ident { $($(#[$m:meta])* $f:ident : $t:ty),* $(,)? }) => {
        $name::$variant { $($f),* }
    };
    (@pat $name:ident $variant:ident $value:ident ($t:ty)) => {
        $name::$variant($value)
    };
    (@enc $buf:ident $value:ident { $($(#[$m:meta])* $f:ident : $t:ty),* $(,)? }) => {
        $($crate::wire::WireEncode::encode($f, $buf);)*
    };
    (@enc $buf:ident $value:ident ($t:ty)) => {
        $crate::wire::WireEncode::encode($value, $buf);
    };
    (@len $value:ident { $($(#[$m:meta])* $f:ident : $t:ty),* $(,)? }) => {
        0 $(+ $crate::wire::WireEncode::encoded_len($f))*
    };
    (@len $value:ident ($t:ty)) => {
        $crate::wire::WireEncode::encoded_len($value)
    };
    (@dec $r:ident $name:ident $variant:ident { $($(#[$m:meta])* $f:ident : $t:ty),* $(,)? }) => {
        $name::$variant { $($f: <$t as $crate::wire::WireDecode>::decode($r)?),* }
    };
    (@dec $r:ident $name:ident $variant:ident ($t:ty)) => {
        $name::$variant(<$t as $crate::wire::WireDecode>::decode($r)?)
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident $(<$($gen:ident),+>)? {
            $($(#[$vmeta:meta])* $tag:literal => $variant:ident $body:tt),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name $(<$($gen),+>)? {
            $($(#[$vmeta])* $variant $body,)+
        }

        impl $(<$($gen),+>)? $name $(<$($gen),+>)? {
            /// Every variant tag, in row order.
            pub const TAGS: &'static [u8] = &[$($tag),+];
        }

        // Two rows under one tag are two equal discriminants: error E0081.
        const _: () = {
            #[allow(dead_code)]
            #[repr(u8)]
            enum Tags {
                $($variant = $tag,)+
            }
        };

        impl $(<$($gen: $crate::wire::WireEncode),+>)? $crate::wire::WireEncode
            for $name $(<$($gen),+>)?
        {
            fn encode(&self, buf: &mut $crate::wire::EncodeBuf) {
                match self {
                    $($crate::wire_table!(@pat $name $variant value $body) => {
                        <u8 as $crate::wire::WireEncode>::encode(&$tag, buf);
                        $crate::wire_table!(@enc buf value $body);
                    })+
                }
            }

            fn encoded_len(&self) -> usize {
                match self {
                    $($crate::wire_table!(@pat $name $variant value $body) => {
                        1 + $crate::wire_table!(@len value $body)
                    })+
                }
            }
        }

        $crate::wire_table!(@size $name $(<$($gen),+>)?);

        impl $(<$($gen: $crate::wire::WireDecode),+>)? $crate::wire::WireDecode
            for $name $(<$($gen),+>)?
        {
            fn decode(
                r: &mut $crate::wire::WireReader,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok(match r.u8()? {
                    $($tag => $crate::wire_table!(@dec r $name $variant $body),)+
                    tag => {
                        return ::core::result::Result::Err($crate::wire::WireError::BadTag {
                            ty: stringify!($name),
                            tag,
                        })
                    }
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(<$($gen:ident),+>)? {
            $($(#[$fmeta:meta])* $fvis:vis $f:ident : $t:ty),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name $(<$($gen),+>)? {
            $($(#[$fmeta])* $fvis $f: $t,)+
        }

        impl $(<$($gen: $crate::wire::WireEncode),+>)? $crate::wire::WireEncode
            for $name $(<$($gen),+>)?
        {
            fn encode(&self, buf: &mut $crate::wire::EncodeBuf) {
                $($crate::wire::WireEncode::encode(&self.$f, buf);)+
            }

            fn encoded_len(&self) -> usize {
                0 $(+ $crate::wire::WireEncode::encoded_len(&self.$f))+
            }
        }

        $crate::wire_table!(@size $name $(<$($gen),+>)?);

        impl $(<$($gen: $crate::wire::WireDecode),+>)? $crate::wire::WireDecode
            for $name $(<$($gen),+>)?
        {
            fn decode(
                r: &mut $crate::wire::WireReader,
            ) -> ::core::result::Result<Self, $crate::wire::WireError> {
                ::core::result::Result::Ok($name {
                    $($f: <$t as $crate::wire::WireDecode>::decode(r)?,)+
                })
            }
        }
    };
}

/// A decoded frame header (see the [module docs](self) for the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sending replica.
    pub from: ReplicaId,
    /// Destination replica.
    pub to: ReplicaId,
    /// Payload length in bytes.
    pub len: u32,
    /// Per-link frame sequence number: 1, 2, 3, … on each connection.
    /// Receivers refuse any other value and close the connection, so a
    /// lost frame takes its link down instead of leaving a gap.
    pub seq: u64,
    /// [`checksum`] of the payload (XXH64, low 32 bits).
    pub checksum: u32,
}

impl FrameHeader {
    /// Builds the header for `payload` on the `from → to` link.
    pub fn for_payload(from: ReplicaId, to: ReplicaId, seq: u64, payload: &[u8]) -> Self {
        FrameHeader {
            from,
            to,
            len: payload.len() as u32,
            seq,
            checksum: checksum(payload),
        }
    }

    /// Encodes the header into its fixed 32-byte form.
    pub fn encode(&self) -> [u8; MSG_HEADER_BYTES] {
        let mut h = [0u8; MSG_HEADER_BYTES];
        h[0..4].copy_from_slice(&FRAME_MAGIC.to_be_bytes());
        h[4..6].copy_from_slice(&WIRE_VERSION.to_be_bytes());
        // 6..8 flags: reserved, zero.
        h[8..10].copy_from_slice(&self.from.as_u16().to_be_bytes());
        h[10..12].copy_from_slice(&self.to.as_u16().to_be_bytes());
        h[12..16].copy_from_slice(&self.len.to_be_bytes());
        h[16..24].copy_from_slice(&self.seq.to_be_bytes());
        h[24..28].copy_from_slice(&self.checksum.to_be_bytes());
        // 28..32 reserved, zero.
        h
    }

    /// Decodes and validates a 32-byte header: magic, version, and the
    /// announced length against [`MAX_FRAME_PAYLOAD`]. The payload
    /// checksum is verified separately once the payload has been read
    /// ([`FrameHeader::verify_payload`]).
    pub fn decode(h: &[u8; MSG_HEADER_BYTES]) -> Result<Self, WireError> {
        // The big-endian unsigned integer in `h[range]`; every range
        // below is at most 8 bytes wide, so the value fits its field's
        // type and each cast is exact.
        let be = |range: std::ops::Range<usize>| {
            h[range]
                .iter()
                .fold(0u64, |acc, &b| acc << 8 | u64::from(b))
        };
        let magic = be(0..4) as u32;
        if magic != FRAME_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = be(4..6) as u16;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let len = be(12..16) as u32;
        if len as usize > MAX_FRAME_PAYLOAD {
            return Err(WireError::FrameTooLarge(len as usize));
        }
        Ok(FrameHeader {
            from: ReplicaId::new(be(8..10) as u16),
            to: ReplicaId::new(be(10..12) as u16),
            len,
            seq: be(16..24),
            checksum: be(24..28) as u32,
        })
    }

    /// Checks `payload` against the header's checksum.
    pub fn verify_payload(&self, payload: &[u8]) -> Result<(), WireError> {
        if payload.len() != self.len as usize || checksum(payload) != self.checksum {
            return Err(WireError::BadChecksum);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Codec impls for primitives and the shared protocol vocabulary.
// ---------------------------------------------------------------------

impl WireEncode for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }

    fn encoded_len(&self) -> usize {
        1
    }
}
impl WireDecode for u8 {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.u8()
    }
}

impl WireEncode for u16 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16(*self);
    }

    fn encoded_len(&self) -> usize {
        2
    }
}
impl WireDecode for u16 {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.u16()
    }
}

impl WireEncode for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(*self);
    }

    fn encoded_len(&self) -> usize {
        4
    }
}
impl WireDecode for u32 {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.u32()
    }
}

impl WireEncode for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(*self);
    }

    fn encoded_len(&self) -> usize {
        8
    }
}
impl WireDecode for u64 {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.u64()
    }
}

impl WireEncode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }

    fn encoded_len(&self) -> usize {
        1
    }
}
impl WireDecode for bool {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.bool()
    }
}

impl WireEncode for () {
    fn encode(&self, _buf: &mut BytesMut) {}

    fn encoded_len(&self) -> usize {
        0
    }
}
impl WireDecode for () {
    fn decode(_r: &mut WireReader) -> Result<Self, WireError> {
        Ok(())
    }
}
impl WireMsg for () {
    fn shares_encoding(&self, _prev: &Self) -> bool {
        true
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, WireEncode::encoded_len)
    }
}
impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag { ty: "Option", tag }),
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(self.len() as u32);
        for v in self {
            v.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        4 + self.iter().map(WireEncode::encoded_len).sum::<usize>()
    }
}
impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let len = r.u32()? as usize;
        // Cap the pre-allocation: a corrupt length prefix must not OOM
        // before Truncated is detected element by element.
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}
impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl WireEncode for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(self.len() as u32);
        buf.put_slice(self);
    }

    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}
impl WireDecode for Bytes {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let len = r.u32()? as usize;
        r.take_bytes(len)
    }
}

impl WireEncode for ReplicaId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16(self.as_u16());
    }

    fn encoded_len(&self) -> usize {
        2
    }
}
impl WireDecode for ReplicaId {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(ReplicaId::new(r.u16()?))
    }
}

impl WireEncode for ClientId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16(self.site().as_u16());
        buf.put_u32(self.number());
    }

    fn encoded_len(&self) -> usize {
        6
    }
}
impl WireDecode for ClientId {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let site = ReplicaId::new(r.u16()?);
        Ok(ClientId::new(site, r.u32()?))
    }
}

impl WireEncode for Timestamp {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.micros());
        buf.put_u16(self.replica().as_u16());
    }

    fn encoded_len(&self) -> usize {
        10
    }
}
impl WireDecode for Timestamp {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let micros = r.u64()?;
        Ok(Timestamp::new(micros, ReplicaId::new(r.u16()?)))
    }
}

impl WireEncode for Epoch {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64(self.0);
    }

    fn encoded_len(&self) -> usize {
        8
    }
}
impl WireDecode for Epoch {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Epoch(r.u64()?))
    }
}

impl WireEncode for Command {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        buf.put_u8(self.read_only as u8);
        self.read_at.encode(buf);
        self.payload.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.id.encoded_len() + 1 + self.read_at.encoded_len() + self.payload.encoded_len()
    }
}
impl WireDecode for Command {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let id = CommandId::decode(r)?;
        let read_only = r.bool()?;
        let read_at = Option::<u64>::decode(r)?;
        let payload = Bytes::decode(r)?;
        Ok(Command {
            id,
            payload,
            read_only,
            read_at,
        })
    }
}

impl WireEncode for Batch {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(self.len() as u32);
        for cmd in self.iter() {
            cmd.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        4 + self.iter().map(WireEncode::encoded_len).sum::<usize>()
    }
}
impl WireDecode for Batch {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let cmds = Vec::<Command>::decode(r)?;
        if cmds.is_empty() {
            return Err(WireError::EmptyBatch);
        }
        Ok(Batch::new(cmds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CatchUp, CatchUpReply, Checkpoint};
    use crate::command::Reply;

    fn cmd(seq: u64, payload: &[u8]) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(2), 9), seq),
            Bytes::copy_from_slice(payload),
        )
    }

    /// Each primitive's `encoded_len` is the length of its encoding.
    #[test]
    fn every_primitive_states_its_encoded_length() {
        fn check<T: WireEncode + fmt::Debug>(v: T) {
            assert_eq!(v.encoded_len(), encode_payload(&v).len(), "{v:?}");
        }
        check(7u8);
        check(7u16);
        check(7u32);
        check(7u64);
        check(true);
        check(());
        check(None::<u64>);
        check(Some(5u64));
        check(vec![1u16, 2, 3]);
        check((ReplicaId::new(1), 9u32));
        check(Bytes::from_static(b"abc"));
        check(ClientId::new(ReplicaId::new(1), 4));
        check(Timestamp::new(5, ReplicaId::new(2)));
        check(Epoch(3));
        check(CommandId::new(ClientId::new(ReplicaId::new(1), 4), 9));
        check(cmd(1, b"plain write"));
        check(Command::read(cmd(2, b"").id, Bytes::from_static(b"get k")));
        check(Command::read_at(cmd(3, b"").id, Bytes::new(), 123_456));
        check(Batch::new(vec![cmd(4, b"a"), cmd(5, b"bc")]));
        assert_eq!(().wire_size(), MSG_HEADER_BYTES);
    }

    #[test]
    fn command_round_trips_including_read_fields() {
        for c in [
            cmd(1, b"plain write"),
            Command::read(
                CommandId::new(ClientId::new(ReplicaId::new(1), 3), 7),
                Bytes::from_static(b"get k"),
            ),
            Command::read_at(
                CommandId::new(ClientId::new(ReplicaId::new(0), 0), 8),
                Bytes::from_static(b"get k"),
                123_456,
            ),
        ] {
            let back: Command = decode_payload(encode_payload(&c)).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn decoded_command_payload_shares_the_receive_buffer() {
        let c = cmd(1, b"a payload long enough to matter");
        let wire = encode_payload(&c);
        let back: Command = decode_payload(wire.clone()).unwrap();
        // Zero-copy: the decoded payload points into the received frame.
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        assert!(wire_range.contains(&(back.payload.as_ptr() as usize)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let c = cmd(1, b"x");
        let mut buf = BytesMut::new();
        c.encode(&mut buf);
        buf.put_u8(0xEE);
        assert_eq!(
            decode_payload::<Command>(buf.freeze()),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn truncated_buffers_are_rejected_at_every_length() {
        let c = cmd(3, b"some payload");
        let wire = encode_payload(&c);
        for cut in 0..wire.len() {
            let err = decode_payload::<Command>(wire.slice(0..cut));
            assert!(err.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn frame_header_round_trips_and_validates() {
        let payload = b"hello frame";
        let h = FrameHeader::for_payload(ReplicaId::new(1), ReplicaId::new(2), 77, payload);
        let enc = h.encode();
        let back = FrameHeader::decode(&enc).unwrap();
        assert_eq!(back, h);
        back.verify_payload(payload).unwrap();
        assert_eq!(
            back.verify_payload(b"hello frame!"),
            Err(WireError::BadChecksum)
        );

        let mut bad_magic = enc;
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            FrameHeader::decode(&bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = enc;
        bad_version[5] = 0xFE;
        assert!(matches!(
            FrameHeader::decode(&bad_version),
            Err(WireError::BadVersion(_))
        ));

        let mut huge = enc;
        huge[12..16].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            FrameHeader::decode(&huge),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn xxh64_matches_the_specification_vectors() {
        for (input, want) in [
            (&b""[..], 0xEF46_DB37_51D8_E999u64),
            (b"a", 0xD24E_C4F1_A98C_6E5B),
            (b"abc", 0x44BC_2CF5_AD77_0999),
            (
                b"Nobody inspects the spammish repetition",
                0xFBCE_A83C_8A37_8BF1,
            ),
        ] {
            assert_eq!(xxh64(input), want, "xxh64({input:?})");
            assert_eq!(checksum(input), want as u32, "checksum({input:?})");
        }
    }

    /// Lengths 0..=96 walk the short (< 32 B) path, one to three stripes
    /// and every combination of the 8- / 4- / 1-byte tail steps.
    #[test]
    fn checksum_sees_every_length_and_the_last_byte() {
        let pattern: Vec<u8> = (0..96u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 1..=pattern.len() {
            let sum = checksum(&pattern[..len]);
            assert_ne!(
                sum,
                checksum(&pattern[..len - 1]),
                "length {len} vs one less"
            );
            let mut changed = pattern[..len].to_vec();
            changed[len - 1] ^= 0x5A;
            assert_ne!(sum, checksum(&changed), "last byte of {len}");
        }
    }

    #[test]
    fn every_bit_flip_and_truncation_of_a_payload_fails_verification() {
        let mut payload: Vec<u8> = (0..4096u32).map(|i| (i * 131 + i / 7) as u8).collect();
        let h = FrameHeader::for_payload(ReplicaId::new(0), ReplicaId::new(1), 1, &payload);
        h.verify_payload(&payload).unwrap();
        for cut in 0..payload.len() {
            assert_eq!(
                h.verify_payload(&payload[..cut]),
                Err(WireError::BadChecksum),
                "truncated to {cut}"
            );
        }
        for bit in 0..payload.len() * 8 {
            payload[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                h.verify_payload(&payload),
                Err(WireError::BadChecksum),
                "bit {bit} flipped"
            );
            payload[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn older_peers_are_refused_by_version() {
        assert_eq!(WIRE_VERSION, 5);
        for v in [1u16, 2, 3, 4] {
            let mut old =
                FrameHeader::for_payload(ReplicaId::new(1), ReplicaId::new(2), 1, b"x").encode();
            old[4..6].copy_from_slice(&v.to_be_bytes());
            assert_eq!(FrameHeader::decode(&old), Err(WireError::BadVersion(v)));
        }
    }

    #[test]
    fn checkpoint_and_catch_up_round_trip() {
        let cp = Checkpoint {
            applied: 42u64,
            epoch: Epoch(3),
            config: vec![ReplicaId::new(0), ReplicaId::new(2)],
            snapshot: Bytes::from_static(b"snappy"),
            sessions: Bytes::from_static(b"window"),
        };
        let reply: CatchUpReply<u64, Vec<u64>> = CatchUpReply::Snapshot(cp);
        let back: CatchUpReply<u64, Vec<u64>> = decode_payload(encode_payload(&reply)).unwrap();
        assert_eq!(back, reply);
        let runs: CatchUpReply<u64, Vec<u64>> = CatchUpReply::Runs {
            from: 41,
            below: 44,
            runs: vec![41, 43],
        };
        let back: CatchUpReply<u64, Vec<u64>> = decode_payload(encode_payload(&runs)).unwrap();
        assert_eq!(back, runs);
        let req = CatchUp {
            from: 41u64,
            below: 44,
        };
        let back: CatchUp<u64> = decode_payload(encode_payload(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn timestamp_keyed_checkpoint_round_trips() {
        let cp = Checkpoint {
            applied: Timestamp::new(9_000, ReplicaId::new(1)),
            epoch: Epoch(1),
            config: vec![ReplicaId::new(1)],
            snapshot: Bytes::new(),
            sessions: Bytes::new(),
        };
        let back: Checkpoint<Timestamp> = decode_payload(encode_payload(&cp)).unwrap();
        assert_eq!(back, cp);
    }

    /// Session windows carry replies inside checkpoints: id (site,
    /// client number, seq), then the length-prefixed result.
    #[test]
    fn reply_encoding_is_pinned() {
        let id = CommandId::new(ClientId::new(ReplicaId::new(2), 40), 17);
        let reply = Reply::new(id, Bytes::from_static(b"ok"));
        let wire = encode_payload(&reply);
        assert_eq!(
            wire[..],
            [0, 2, 0, 0, 0, 40, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 2, b'o', b'k']
        );
        let back: Reply = decode_payload(wire).unwrap();
        assert_eq!(back, reply);
    }
}
