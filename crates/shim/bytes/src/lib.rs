//! Offline stand-in for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `bytes` API it actually uses: [`Bytes`]
//! (an immutable, reference-counted byte buffer whose clones share
//! storage), [`BytesMut`] (a growable builder), [`BufMut`] (the
//! big-endian put helpers), and [`Buf`] (the big-endian read cursor
//! helpers, implemented by [`Bytes`]). Semantics match the real crate for
//! this subset — including the panicking-on-underflow contract of
//! `Buf`/`BufMut` — swap the workspace dependency back to crates.io
//! `bytes` when a registry is available; no call sites need to change.
//!
//! # Complexity contract
//!
//! The cost model matches the real crate's too, so a measurement taken on
//! the shim is a measurement of the caller, not of the stand-in:
//!
//! * `Bytes::from(Vec<u8>)`, `Bytes::from(String)` and
//!   [`BytesMut::freeze`] are **O(1)**: they take ownership of the
//!   vector's allocation — no copy, one small allocation for the
//!   reference count, and the buffer keeps the vector's address (and any
//!   spare capacity the vector had).
//! * [`Bytes::from_static`] is a `const fn`, borrows the static slice and
//!   allocates nothing; so do [`Bytes::new`] and `Bytes::default()`.
//! * `clone`, [`Bytes::slice`], [`Bytes::split_to`] and `advance` are
//!   O(1) and share storage.
//! * [`Bytes::copy_from_slice`] is the one O(len) constructor: one copy
//!   into an exactly-sized allocation.
//!
//! Equality, ordering, hashing and `Borrow<[u8]>` look at content only: a
//! static and an owned buffer holding the same bytes are the same map key.
//! Everything is safe Rust.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes.
///
/// A `Bytes` is a window (`start..end`) onto storage it either borrows for
/// `'static` or shares by reference count. Clones and sub-slices share the
/// storage, so cloning a payload when rebroadcasting a command is O(1) and
/// allocation-free; wrapping a `Vec<u8>` is O(1) and copy-free (see the
/// [crate docs](crate#complexity-contract)).
#[derive(Clone)]
pub struct Bytes {
    storage: Storage,
    start: usize,
    end: usize,
}

#[derive(Clone)]
enum Storage {
    Static(&'static [u8]),
    /// The vector a `Bytes` was built from, as it was: never reallocated,
    /// so the bytes stay where the producer wrote them.
    Shared(Arc<Vec<u8>>),
}

impl Bytes {
    /// Creates an empty `Bytes`. Allocates nothing.
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Borrows a static byte slice: O(1), no allocation, no copy, usable
    /// in a `const`. The buffer points at the static itself.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            storage: Storage::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Copies a slice into a new, exactly-sized buffer: O(len), the only
    /// constructor that copies.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Returns a sub-slice sharing the same backing storage.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            storage: self.storage.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Splits off and returns the first `at` bytes, leaving `self` with
    /// the rest. Both halves share the original backing storage.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(0..at);
        self.start += at;
        head
    }
}

/// Big-endian read helpers over a byte cursor, the subset of `bytes::Buf`
/// the workspace uses. Like the real crate, the getters **panic** when
/// the buffer has fewer bytes than requested; length-check with
/// [`remaining`](Buf::remaining) first for fallible decoding.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Skips the next `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        assert!(self.remaining() >= 1, "Buf underflow");
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        assert!(self.remaining() >= 2, "Buf underflow");
        let v = u16::from_be_bytes(self.chunk()[..2].try_into().unwrap());
        self.advance(2);
        v
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        assert!(self.remaining() >= 4, "Buf underflow");
        let v = u32::from_be_bytes(self.chunk()[..4].try_into().unwrap());
        self.advance(4);
        v
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        assert!(self.remaining() >= 8, "Buf underflow");
        let v = u64::from_be_bytes(self.chunk()[..8].try_into().unwrap());
        self.advance(8);
        v
    }

    /// Fills `dst` from the buffer.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "Buf underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        let all: &[u8] = match &self.storage {
            Storage::Static(bytes) => bytes,
            Storage::Shared(vec) => vec,
        };
        &all[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// O(1): the `Bytes` owns the vector's allocation as it is — same address,
/// same capacity; only the reference count is allocated.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            start: 0,
            end: v.len(),
            storage: Storage::Shared(Arc::new(v)),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable byte buffer used to build a [`Bytes`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty builder.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty builder with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the builder is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Freezes the builder into an immutable [`Bytes`]: O(1), the bytes
    /// stay where they were written (spare capacity included — size the
    /// builder with [`with_capacity`](BytesMut::with_capacity) when the
    /// result is kept for long).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Big-endian write helpers, the subset of `bytes::BufMut` the workspace
/// uses.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn builder_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(7);
        m.put_u32(0x01020304);
        m.put_u64(5);
        m.put_slice(b"xy");
        let b = m.freeze();
        assert_eq!(b.len(), 1 + 4 + 8 + 2);
        assert_eq!(b[0], 7);
        assert_eq!(&b[1..5], &[1, 2, 3, 4]);
        assert_eq!(&b[13..], b"xy");
    }

    #[test]
    fn slice_shares_and_bounds() {
        let a = Bytes::from(vec![0, 1, 2, 3, 4]);
        let s = a.slice(1..4);
        assert_eq!(s.as_ref(), &[1, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn buf_reads_back_what_bufmut_wrote() {
        let mut m = BytesMut::new();
        m.put_u8(0xAB);
        m.put_u16(0x0102);
        m.put_u32(0x03040506);
        m.put_u64(0x0708090A0B0C0D0E);
        m.put_slice(b"tail");
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 0xAB);
        assert_eq!(b.get_u16(), 0x0102);
        assert_eq!(b.get_u32(), 0x03040506);
        assert_eq!(b.get_u64(), 0x0708090A0B0C0D0E);
        let mut tail = [0u8; 4];
        b.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"tail");
        assert!(!b.has_remaining());
    }

    #[test]
    fn split_to_shares_storage_with_the_remainder() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.as_ref(), &[1, 2]);
        assert_eq!(b.as_ref(), &[3, 4, 5]);
        assert_eq!(head.as_ptr(), unsafe { b.as_ptr().sub(2) });
    }

    #[test]
    #[should_panic(expected = "Buf underflow")]
    fn buf_underflow_panics_like_the_real_crate() {
        let mut b = Bytes::from(vec![1u8]);
        let _ = b.get_u32();
    }

    #[test]
    fn map_key_lookup_by_slice() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<Bytes, u32> = BTreeMap::new();
        m.insert(Bytes::from("k"), 1);
        assert_eq!(m.get(b"k".as_slice()), Some(&1));
    }

    #[test]
    fn from_vec_and_freeze_keep_the_vectors_address() {
        // Spare capacity on purpose: a shrink would be free to move it.
        let mut v = Vec::with_capacity(4096);
        v.extend_from_slice(&[7u8; 100]);
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b.as_ref(), &[7u8; 100]);

        let mut m = BytesMut::with_capacity(4096);
        m.put_slice(&[9u8; 100]);
        let at = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b.as_ref(), &[9u8; 100]);

        let s = String::from("owned text");
        let at = s.as_ptr();
        assert_eq!(Bytes::from(s).as_ptr(), at);
    }

    #[test]
    fn from_static_is_const_and_points_at_the_static() {
        static DATA: [u8; 3] = [1, 2, 3];
        const WHOLE: Bytes = Bytes::from_static(&DATA);
        const EMPTY: Bytes = Bytes::new();
        assert_eq!(WHOLE.as_ptr(), DATA.as_ptr());
        assert_eq!(WHOLE.clone().as_ptr(), DATA.as_ptr());
        assert_eq!(WHOLE.slice(1..3).as_ptr(), DATA[1..].as_ptr());
        assert_eq!(Bytes::from(&DATA[..]).as_ptr(), DATA.as_ptr());
        assert!(EMPTY.is_empty() && Bytes::default().is_empty());
    }

    /// The same content in each representation, each as a whole buffer
    /// and as a window into a larger one.
    fn representations(content: &'static [u8]) -> Vec<Bytes> {
        let mut padded = vec![0xEE];
        padded.extend_from_slice(content);
        padded.push(0xEE);
        let window = 1..1 + content.len();
        vec![
            Bytes::from_static(content),
            Bytes::from(content.to_vec()),
            Bytes::from_static(padded.clone().leak()).slice(window.clone()),
            Bytes::from(padded).slice(window),
        ]
    }

    #[test]
    fn equal_content_is_one_key_whatever_holds_it() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::{BTreeMap, HashMap};
        fn hash_of(b: &Bytes) -> u64 {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        }
        let (below, above) = (Bytes::from_static(b"kex"), Bytes::from(b"kez".to_vec()));
        let all = representations(b"key");
        for a in &all {
            for b in &all {
                assert_eq!(a, b);
                assert_eq!(a.cmp(b), std::cmp::Ordering::Equal);
                assert_eq!(hash_of(a), hash_of(b));
            }
            assert!(below < *a && *a < above);
            assert_eq!(*a, b"key".as_slice());

            let mut tree: BTreeMap<Bytes, u32> = BTreeMap::new();
            let mut table: HashMap<Bytes, u32> = HashMap::new();
            tree.insert(a.clone(), 1);
            table.insert(a.clone(), 1);
            for b in &all {
                assert_eq!(tree.insert(b.clone(), 1), Some(1), "one key, not two");
                assert_eq!(table.insert(b.clone(), 1), Some(1), "one key, not two");
            }
            assert_eq!(tree.get(b"key".as_slice()), Some(&1));
            assert_eq!(table.get(b"key".as_slice()), Some(&1));
            assert_eq!((tree.len(), table.len()), (1, 1));
        }
    }

    #[test]
    fn cursor_and_slicing_behave_the_same_on_every_representation() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        const CONTENT: &[u8] = &[
            0xAB, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D,
            0x0E, b't', b'a', b'i', b'l',
        ];
        for mut b in representations(CONTENT) {
            let origin = b.as_ptr();
            assert_eq!(b.len(), CONTENT.len());
            assert_eq!(b.to_vec(), CONTENT);
            assert_eq!(b.slice(15..19).as_ref(), b"tail");
            assert_eq!(b.slice(3..3).len(), 0);
            assert_eq!(b.clone().as_ptr(), origin);

            assert_eq!(b.get_u8(), 0xAB);
            assert_eq!(b.get_u16(), 0x0102);
            assert_eq!(b.get_u32(), 0x03040506);
            assert_eq!(b.get_u64(), 0x0708090A0B0C0D0E);
            assert_eq!((b.remaining(), b.chunk()), (4, b"tail".as_slice()));
            let head = b.split_to(1);
            assert_eq!(
                (head.as_ref(), b.as_ref()),
                (b"t".as_slice(), b"ail".as_slice())
            );
            assert_eq!(head.as_ptr(), origin.wrapping_add(15), "split_to shares");
            b.advance(1);
            let mut rest = [0u8; 2];
            b.copy_to_slice(&mut rest);
            assert_eq!(&rest, b"il");
            assert!(!b.has_remaining());

            // Underflow panics, and leaves the cursor where it was.
            let mut short = head;
            assert!(catch_unwind(AssertUnwindSafe(|| short.get_u16())).is_err());
            assert!(catch_unwind(AssertUnwindSafe(|| short.get_u32())).is_err());
            assert!(catch_unwind(AssertUnwindSafe(|| short.get_u64())).is_err());
            assert!(catch_unwind(AssertUnwindSafe(|| short.copy_to_slice(&mut [0; 2]))).is_err());
            assert!(catch_unwind(AssertUnwindSafe(|| short.advance(2))).is_err());
            assert!(catch_unwind(AssertUnwindSafe(|| short.split_to(2))).is_err());
            assert!(catch_unwind(|| short.slice(0..2)).is_err());
            assert_eq!(short.get_u8(), b't');
            assert!(catch_unwind(AssertUnwindSafe(|| short.get_u8())).is_err());
        }
    }
}
