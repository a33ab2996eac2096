//! Client sessions and the server-side exactly-once dedup window.
//!
//! State machine replication gives every *committed* command at-most-once
//! execution, but nothing in the commit path protects against the same
//! *logical* operation being committed twice: a client that times out and
//! retries after a fail-over used to mint a fresh [`CommandId`], and both
//! the original and the retry would commit and apply. This module closes
//! that hole end to end:
//!
//! * [`ClientSession`] — the client half: a stable [`ClientId`] plus a
//!   monotone sequence number. A *retry* resends the **same** `CommandId`
//!   it was given; only a *new* operation advances the sequence
//!   ([`ClientSession::next_id`]).
//! * [`SessionTable`] — the server half, owned by each replica's
//!   [`Executor`](crate::exec::Executor): per client, the highest applied
//!   sequence number and the cached [`Reply`] of that newest command.
//!   The executor routes every decided command — live or replayed —
//!   through [`SessionTable::commit_dedup`]; a duplicate is **not**
//!   re-applied, and at the origin replica the cached reply is re-sent
//!   instead.
//!
//! # The exactly-once contract
//!
//! For a client that (a) keeps one command in flight per session and
//! (b) retries with the same `CommandId`, a write is applied **exactly
//! once** provided the client's entry has not been evicted from the
//! window (below). The table tracks only the *highest* applied sequence
//! per client — which is precisely enough for rule (a) — so sequence
//! numbers must be issued and submitted in monotone order within a
//! session. Concurrent submissions under one `ClientId` are outside the
//! contract: a lower-sequence command arriving after a higher one is
//! treated as a duplicate and dropped.
//!
//! # Window size and the eviction staleness caveat
//!
//! The table is bounded to [`DEFAULT_SESSION_WINDOW`] client entries
//! (configurable per table). Eviction is strictly LRU in **apply order**:
//! the tick is the count of applied writes, identical at every replica,
//! so all replicas evict the same entry at the same point in the command
//! sequence — never wall-clock time, which would diverge across replicas
//! and break snapshot equality. The staleness contract is: **a retry that
//! arrives after its client's entry was evicted is indistinguishable from
//! a new command and may re-apply**. Size the window above the number of
//! clients that can plausibly have a retry outstanding (the default of
//! 1024 covers every workload in this tree), or accept at-most-twice for
//! clients that retry later than `window` other clients' writes.
//!
//! # What survives checkpoint install
//!
//! The encoded table ([`SessionTable::export`]) rides every
//! [`Checkpoint`](crate::checkpoint::Checkpoint) — both periodic local
//! checkpoints and peer state transfer — and is restored by
//! [`SessionTable::install`]. A replica that installs a checkpoint at
//! watermark `w` therefore holds exactly the dedup window of the replica
//! that executed through `w`: the exactly-once guarantee is preserved
//! across recovery, log compaction, and state transfer. Replay of log
//! records above `w` rebuilds the newer entries deterministically because
//! replayed commands flow through the same `commit_dedup` path.
//!
//! Read-only commands (including timestamped snapshot reads) **bypass**
//! the table entirely: reads are idempotent, and caching their replies
//! would serve stale data after a retry. They neither consult nor occupy
//! the window.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use bytes::{BufMut, Bytes, BytesMut};

use crate::command::{CommandId, Committed, Reply};
use crate::id::{ClientId, ReplicaId};
use crate::protocol::{Context, Protocol};
use crate::wire::{WireDecode, WireEncode, WireError, WireReader};

/// Default bound on distinct client entries a replica's dedup window
/// holds before LRU eviction (see the module docs for the staleness
/// contract this implies).
pub const DEFAULT_SESSION_WINDOW: usize = 1024;

/// The client half of a session: a stable identity and a monotone
/// sequence number.
///
/// # Examples
///
/// ```
/// use rsm_core::id::{ClientId, ReplicaId};
/// use rsm_core::session::ClientSession;
///
/// let mut s = ClientSession::new(ClientId::new(ReplicaId::new(0), 7));
/// let first = s.next_id();
/// // A retry of the in-flight command resends `first`; only a new
/// // operation advances the sequence.
/// assert_eq!(s.next_id().seq, first.seq + 1);
/// ```
#[derive(Debug, Clone)]
pub struct ClientSession {
    client: ClientId,
    seq: u64,
}

impl ClientSession {
    /// Opens a session for `client` with no commands issued yet.
    pub fn new(client: ClientId) -> Self {
        ClientSession { client, seq: 0 }
    }

    /// The session's stable client identity.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Mints the id for the **next** operation, advancing the sequence.
    pub fn next_id(&mut self) -> CommandId {
        self.seq += 1;
        CommandId::new(self.client, self.seq)
    }
}

/// Outcome of consulting the dedup window for a decided write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionCheck {
    /// Not yet applied for this client: execute and record.
    Fresh,
    /// The client's newest applied command: already executed, cached
    /// reply available — the origin re-serves it instead of re-applying.
    Duplicate(Reply),
    /// At or below the client's applied watermark but older than the
    /// cached reply (or the entry was superseded): must not re-apply,
    /// and there is nothing left to answer with. Only reachable outside
    /// the one-in-flight-per-session contract.
    Stale,
}

#[derive(Debug, Clone)]
struct SessionEntry {
    /// Highest applied sequence number for this client.
    seq: u64,
    /// Cached reply of the command at `seq`.
    reply: Reply,
    /// LRU coordinate: the value of the apply-order tick when this entry
    /// was last written. Identical at every replica.
    touched: u64,
}

/// A replica's dedup window: per client, the highest applied sequence
/// number and the cached reply of that newest command.
///
/// Owned by each replica's [`Executor`](crate::exec::Executor) and
/// consulted at execution time via
/// [`commit_dedup`](SessionTable::commit_dedup); see the module docs for
/// the exactly-once contract, the eviction staleness caveat, and what
/// survives checkpoint install.
#[derive(Debug, Clone)]
pub struct SessionTable {
    window: usize,
    /// Apply-order tick: increments once per recorded write. Replicas
    /// apply identical command sequences, so ticks (and therefore LRU
    /// eviction decisions) are identical everywhere.
    tick: u64,
    entries: HashMap<ClientId, SessionEntry>,
    /// LRU index: `(touched tick, client)` pairs in tick order, one
    /// pushed per write. A pair is **live** while its client's entry
    /// still carries that tick; a rewrite leaves the old pair behind,
    /// stale, to be skipped when it reaches the front (lazy deletion).
    /// Ticks are unique, so the first live pair is the eviction victim.
    /// Whenever the index holds more than twice the window its stale
    /// pairs are dropped, so each costs amortised O(1).
    lru: VecDeque<(u64, ClientId)>,
    /// Chaos-canary knob, **test-only**: when set, [`commit_dedup`]
    /// (SessionTable::commit_dedup) skips the window and re-applies
    /// duplicates — deliberately re-introducing the pre-session retry
    /// double-apply bug so the chaos fuzzer can prove it finds and
    /// shrinks it. Never set on a production path.
    canary_skip_dedup: bool,
}

impl Default for SessionTable {
    fn default() -> Self {
        SessionTable::new(DEFAULT_SESSION_WINDOW)
    }
}

impl SessionTable {
    /// An empty table bounded to `window` client entries.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "session window must be positive");
        SessionTable {
            window,
            tick: 0,
            entries: HashMap::new(),
            lru: VecDeque::new(),
            canary_skip_dedup: false,
        }
    }

    /// Sets the chaos-canary knob (**test-only**; see the field docs):
    /// when on, `commit_dedup` re-applies duplicate writes instead of
    /// deduplicating them.
    pub fn set_canary_skip_dedup(&mut self, on: bool) {
        self.canary_skip_dedup = on;
    }

    /// Number of client entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records an applied write and its reply, advancing the LRU tick and
    /// evicting the least-recently-written entry beyond the window.
    pub fn record(&mut self, id: CommandId, reply: Reply) {
        self.write_with(id, |_| Some(reply));
    }

    /// The one body that writes an entry. Finds `id`'s client once, asks
    /// `decide` — shown the client's current entry — for the reply to
    /// record, and if there is one overwrites the entry in place:
    /// advances the apply-order tick, pushes the client onto the young
    /// end of the LRU index and evicts the oldest entry beyond the window.
    fn write_with(
        &mut self,
        id: CommandId,
        decide: impl FnOnce(Option<&SessionEntry>) -> Option<Reply>,
    ) {
        let slot = self.entries.entry(id.client);
        let current = match &slot {
            Entry::Occupied(e) => Some(e.get()),
            Entry::Vacant(_) => None,
        };
        let Some(reply) = decide(current) else {
            return;
        };
        self.tick += 1;
        let entry = SessionEntry {
            seq: id.seq,
            reply,
            touched: self.tick,
        };
        slot.insert_entry(entry);
        self.lru.push_back((self.tick, id.client));
        self.trim();
        if self.lru.len() > self.window.saturating_mul(2) {
            let entries = &self.entries;
            self.lru
                .retain(|&(touched, client)| live(entries, touched, client));
        }
    }

    /// Evicts the least-recently-written entries until at most `window`
    /// are left, dropping the stale LRU pairs it passes.
    fn trim(&mut self) {
        while self.entries.len() > self.window {
            let Some((touched, client)) = self.lru.pop_front() else {
                break;
            };
            if live(&self.entries, touched, client) {
                self.entries.remove(&client);
            }
        }
    }

    /// Drops every entry (recovery from scratch; replay rebuilds).
    pub fn reset(&mut self) {
        self.tick = 0;
        self.entries.clear();
        self.lru.clear();
    }

    /// Routes one decided command through the dedup window.
    ///
    /// Read-only commands bypass the table entirely (reads are
    /// idempotent; caching their replies would serve stale data). A
    /// fresh write is executed via [`Context::commit`] and its reply
    /// recorded; a duplicate is **not** re-applied, and at the origin
    /// replica the cached reply is re-sent via [`Context::send_reply`].
    ///
    /// Returns whether the command was actually applied — protocols use
    /// this to keep apply-coupled accounting (checkpoint triggers) in
    /// step with the state machine.
    pub fn commit_dedup<P: Protocol + ?Sized>(
        &mut self,
        me: ReplicaId,
        committed: Committed,
        ctx: &mut dyn Context<P>,
    ) -> bool {
        if committed.cmd.read_only {
            ctx.commit(committed);
            return true;
        }
        if self.canary_skip_dedup {
            // Chaos-canary (test-only): behave like the tree before client
            // sessions existed — every decided write applies, retries
            // included.
            ctx.commit(committed);
            return true;
        }
        let id = committed.cmd.id;
        let mut applied = false;
        self.write_with(id, |current| match classify(current, id.seq) {
            SessionCheck::Fresh => {
                applied = true;
                Some(Reply::new(id, ctx.commit(committed)))
            }
            SessionCheck::Duplicate(reply) => {
                ctx.obs_count(crate::obs::names::SESSION_DEDUP_HITS, 1);
                if committed.origin == me {
                    ctx.send_reply(reply);
                }
                None
            }
            SessionCheck::Stale => {
                ctx.obs_count(crate::obs::names::SESSION_STALE_DROPS, 1);
                None
            }
        });
        applied
    }

    /// Serializes the table for a checkpoint, deterministically (entries
    /// sorted by client id) so replicas' checkpoints stay byte-identical.
    pub fn export(&self) -> Bytes {
        let mut sorted: Vec<(&ClientId, &SessionEntry)> = self.entries.iter().collect();
        sorted.sort_by_key(|(c, _)| **c);
        let mut buf = BytesMut::new();
        buf.put_u64(self.tick);
        buf.put_u32(sorted.len() as u32);
        for (client, e) in sorted {
            client.encode(&mut buf);
            buf.put_u64(e.seq);
            buf.put_u64(e.touched);
            e.reply.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Restores the table from a checkpoint's encoded form, replacing
    /// the current contents but keeping this table's configured window.
    ///
    /// # Errors
    ///
    /// Returns the wire error on a malformed frame, and the table is
    /// then **empty** — tick 0, no entry, no LRU key — wherever in the
    /// frame decoding stopped: a prefix of somebody's window is never
    /// installed.
    pub fn install(&mut self, frame: &Bytes) -> Result<(), WireError> {
        self.reset();
        let installed = self.install_entries(frame);
        if installed.is_err() {
            self.reset();
        }
        installed
    }

    /// Decodes `frame` into an empty table, entry by entry; on an error
    /// the entries decoded so far are still in place.
    ///
    /// A frame [`export`](SessionTable::export) cannot produce is
    /// rejected: a client named twice, two entries touched at one tick
    /// (eviction order would rest on a tie no write can produce), a
    /// tick not yet minted (a later write would collide with it), or
    /// bytes after the last entry.
    fn install_entries(&mut self, frame: &Bytes) -> Result<(), WireError> {
        let mut r = WireReader::new(frame.clone());
        let tick = r.u64()?;
        let count = r.u32()? as usize;
        for _ in 0..count {
            let client = ClientId::decode(&mut r)?;
            let seq = r.u64()?;
            let touched = r.u64()?;
            let reply = Reply::decode(&mut r)?;
            if touched > tick {
                return Err(WireError::Inconsistent(
                    "entry touched after the frame's tick",
                ));
            }
            self.lru.push_back((touched, client));
            let entry = SessionEntry {
                seq,
                reply,
                touched,
            };
            if self.entries.insert(client, entry).is_some() {
                return Err(WireError::Inconsistent("client named twice"));
            }
        }
        let pairs = self.lru.make_contiguous();
        pairs.sort_unstable();
        if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(WireError::Inconsistent("two entries touched at one tick"));
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        self.tick = tick;
        // A peer's window may have been larger: trim to ours, oldest
        // first, preserving the local staleness contract.
        self.trim();
        Ok(())
    }
}

/// Whether the LRU pair `(touched, client)` is the client's current one.
fn live(entries: &HashMap<ClientId, SessionEntry>, touched: u64, client: ClientId) -> bool {
    entries.get(&client).is_some_and(|e| e.touched == touched)
}

fn classify(entry: Option<&SessionEntry>, seq: u64) -> SessionCheck {
    match entry {
        None => SessionCheck::Fresh,
        Some(e) if seq > e.seq => SessionCheck::Fresh,
        Some(e) if seq == e.seq => SessionCheck::Duplicate(e.reply.clone()),
        Some(_) => SessionCheck::Stale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Command;

    fn client(n: u32) -> ClientId {
        ClientId::new(ReplicaId::new(0), n)
    }

    /// Classifies a decided write against the window without recording.
    fn check(t: &SessionTable, id: CommandId) -> SessionCheck {
        classify(t.entries.get(&id.client), id.seq)
    }

    fn reply(id: CommandId, byte: u8) -> Reply {
        Reply::new(id, Bytes::from(vec![byte]))
    }

    #[test]
    fn session_retry_reuses_id() {
        let mut s = ClientSession::new(client(3));
        let a = s.next_id();
        assert_eq!(a.seq, 1);
        let b = s.next_id();
        assert_eq!(b.seq, a.seq + 1);
        assert_eq!(b.client, a.client);
    }

    #[test]
    fn duplicate_returns_cached_reply_and_stale_is_dropped() {
        let mut t = SessionTable::new(8);
        let c = client(1);
        let id1 = CommandId::new(c, 1);
        let id2 = CommandId::new(c, 2);
        assert_eq!(check(&t, id1), SessionCheck::Fresh);
        t.record(id1, reply(id1, 0xAA));
        assert_eq!(check(&t, id1), SessionCheck::Duplicate(reply(id1, 0xAA)));
        assert_eq!(check(&t, id2), SessionCheck::Fresh);
        t.record(id2, reply(id2, 0xBB));
        // The older command is below the watermark with its reply gone.
        assert_eq!(check(&t, id1), SessionCheck::Stale);
        assert_eq!(check(&t, id2), SessionCheck::Duplicate(reply(id2, 0xBB)));
    }

    #[test]
    fn lru_eviction_is_by_apply_order_and_retry_after_eviction_is_fresh() {
        let mut t = SessionTable::new(2);
        let ids: Vec<CommandId> = (0..3).map(|n| CommandId::new(client(n), 1)).collect();
        t.record(ids[0], reply(ids[0], 0));
        t.record(ids[1], reply(ids[1], 1));
        // Touch client 0 again so client 1 becomes the LRU victim.
        let id0b = CommandId::new(client(0), 2);
        t.record(id0b, reply(id0b, 2));
        t.record(ids[2], reply(ids[2], 3));
        assert_eq!(t.len(), 2);
        // The documented staleness contract: the evicted client's retry
        // is indistinguishable from a new command.
        assert_eq!(check(&t, ids[1]), SessionCheck::Fresh);
        assert_eq!(check(&t, id0b), SessionCheck::Duplicate(reply(id0b, 2)));
    }

    #[test]
    fn export_install_round_trips_and_is_deterministic() {
        let mut a = SessionTable::new(16);
        // Insert in one order…
        for n in [5u32, 1, 9, 3] {
            let id = CommandId::new(client(n), u64::from(n) + 1);
            a.record(id, reply(id, n as u8));
        }
        // …and in another: the export must be byte-identical because
        // entries are written sorted by client id.
        let mut b = SessionTable::new(16);
        for n in [5u32, 1, 9, 3] {
            let id = CommandId::new(client(n), u64::from(n) + 1);
            b.record(id, reply(id, n as u8));
        }
        assert_eq!(a.export(), b.export());

        let mut c = SessionTable::new(16);
        c.install(&a.export()).unwrap();
        assert_eq!(c.export(), a.export());
        let id5 = CommandId::new(client(5), 6);
        assert_eq!(check(&c, id5), SessionCheck::Duplicate(reply(id5, 5)));
        // The restored tick continues the apply order: new records evict
        // in the same sequence the exporter would have.
        let idn = CommandId::new(client(77), 1);
        c.record(idn, reply(idn, 7));
        assert_eq!(check(&c, idn), SessionCheck::Duplicate(reply(idn, 7)));
    }

    #[test]
    fn install_trims_to_local_window() {
        let mut big = SessionTable::new(64);
        for n in 0..10u32 {
            let id = CommandId::new(client(n), 1);
            big.record(id, reply(id, n as u8));
        }
        let mut small = SessionTable::new(4);
        small.install(&big.export()).unwrap();
        assert_eq!(small.len(), 4);
        // The newest four survive.
        for n in 6..10u32 {
            assert!(matches!(
                check(&small, CommandId::new(client(n), 1)),
                SessionCheck::Duplicate(_)
            ));
        }
    }

    #[test]
    fn install_rejects_garbage() {
        let mut t = SessionTable::new(4);
        let id = CommandId::new(client(1), 1);
        t.record(id, reply(id, 1));
        assert!(t.install(&Bytes::from_static(b"\x00\x01")).is_err());
        assert!(t.is_empty(), "failed install leaves the table empty");
    }

    #[test]
    fn an_install_cut_anywhere_leaves_an_empty_working_table() {
        let mut donor = SessionTable::new(16);
        for n in [5u32, 1, 9, 3] {
            let id = CommandId::new(client(n), u64::from(n) + 1);
            donor.record(id, reply(id, n as u8));
        }
        let frame = donor.export();
        let window = 4;
        for cut in 0..frame.len() {
            let mut t = SessionTable::new(window);
            let id = CommandId::new(client(1), 1);
            t.record(id, reply(id, 1));
            assert!(t.install(&frame.slice(0..cut)).is_err(), "cut at {cut}");
            assert!(
                t.is_empty(),
                "cut at {cut}: {} entries left behind",
                t.len()
            );
            assert!(t.lru.is_empty() && t.tick == 0, "cut at {cut}");
            // The window bound still holds: no minted tick collides with
            // an LRU key that survived the failed install.
            for n in 100..=100 + window as u32 {
                let id = CommandId::new(client(n), 1);
                t.record(id, reply(id, 0));
            }
            assert_eq!((t.len(), t.lru.len()), (window, window), "cut at {cut}");
        }
        let mut t = SessionTable::new(window);
        t.install(&frame).unwrap();
        assert_eq!((t.len(), t.lru.len()), (window, window));
    }

    #[test]
    fn an_install_that_contradicts_itself_leaves_an_empty_working_table() {
        let id = |n: u32| CommandId::new(client(n), 1);
        // One entry as `export` writes it.
        let entry = |buf: &mut BytesMut, n: u32, touched: u64| {
            client(n).encode(buf);
            buf.put_u64(1);
            buf.put_u64(touched);
            reply(id(n), 0).encode(buf);
        };
        let frame = |tick: u64, entries: &[(u32, u64)], trailing: &[u8]| {
            let mut buf = BytesMut::new();
            buf.put_u64(tick);
            buf.put_u32(entries.len() as u32);
            for &(n, touched) in entries {
                entry(&mut buf, n, touched);
            }
            buf.put_slice(trailing);
            buf.freeze()
        };
        let window = 2;
        let cases = [
            ("repeated client", frame(2, &[(1, 1), (1, 2)], b"")),
            ("repeated tick", frame(2, &[(1, 2), (2, 2)], b"")),
            ("touched above tick", frame(2, &[(1, 1), (2, 3)], b"")),
            ("trailing bytes", frame(2, &[(1, 1), (2, 2)], b"\0")),
        ];
        for (rule, bad) in cases {
            let mut t = SessionTable::new(window);
            t.record(id(9), reply(id(9), 9));
            assert!(t.install(&bad).is_err(), "{rule}: accepted");
            assert!(t.is_empty() && t.lru.is_empty() && t.tick == 0, "{rule}");
            for n in 100..=100 + window as u32 {
                t.record(id(n), reply(id(n), 0));
            }
            assert_eq!((t.len(), t.lru.len()), (window, window), "{rule}");
        }
        // The same frame without the contradiction installs, and is what
        // `export` writes for that window.
        let good = frame(2, &[(1, 1), (2, 2)], b"");
        let mut t = SessionTable::new(window);
        t.install(&good).unwrap();
        assert_eq!(t.export(), good);
    }

    #[test]
    fn read_only_commands_bypass_the_window() {
        // Exercised through `commit_dedup` with a recording context in
        // `protocol::tests`; here assert the classification contract
        // that makes the bypass safe: reads never occupy entries.
        let t = SessionTable::new(4);
        let id = CommandId::new(client(1), 1);
        let _read = Command::read(id, Bytes::new());
        assert_eq!(check(&t, id), SessionCheck::Fresh);
        assert_eq!(t.len(), 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The table as it was with an eager `BTreeMap` LRU index
        /// (touched tick → client, the first key the victim): the
        /// reference every export of the lazy index must match.
        struct Model {
            window: usize,
            tick: u64,
            entries: HashMap<ClientId, SessionEntry>,
            lru: BTreeMap<u64, ClientId>,
        }

        impl Model {
            fn new(window: usize) -> Self {
                Model {
                    window,
                    tick: 0,
                    entries: HashMap::new(),
                    lru: BTreeMap::new(),
                }
            }

            fn trim(&mut self) {
                while self.entries.len() > self.window {
                    let (_, victim) = self.lru.pop_first().expect("one key per entry");
                    self.entries.remove(&victim);
                }
            }

            fn record(&mut self, id: CommandId, reply: Reply) {
                self.tick += 1;
                let entry = SessionEntry {
                    seq: id.seq,
                    reply,
                    touched: self.tick,
                };
                if let Some(old) = self.entries.insert(id.client, entry) {
                    self.lru.remove(&old.touched);
                }
                self.lru.insert(self.tick, id.client);
                self.trim();
            }

            fn reset(&mut self) {
                self.tick = 0;
                self.entries.clear();
                self.lru.clear();
            }

            /// `install`, decoding only frames some table exported (or
            /// a cut of one, which leaves the model empty).
            fn install(&mut self, frame: &Bytes) {
                self.reset();
                let mut r = WireReader::new(frame.clone());
                let mut decoded = || -> Result<_, WireError> {
                    let tick = r.u64()?;
                    let mut entries = Vec::new();
                    for _ in 0..r.u32()? {
                        let client = ClientId::decode(&mut r)?;
                        let (seq, touched) = (r.u64()?, r.u64()?);
                        let reply = Reply::decode(&mut r)?;
                        entries.push((client, seq, touched, reply));
                    }
                    Ok((tick, entries, r.remaining()))
                };
                let Ok((tick, entries, 0)) = decoded() else {
                    return;
                };
                self.tick = tick;
                for (client, seq, touched, reply) in entries {
                    self.lru.insert(touched, client);
                    let entry = SessionEntry {
                        seq,
                        reply,
                        touched,
                    };
                    self.entries.insert(client, entry);
                }
                self.trim();
            }

            fn export(&self) -> Bytes {
                let mut sorted: Vec<_> = self.entries.iter().collect();
                sorted.sort_by_key(|(c, _)| **c);
                let mut buf = BytesMut::new();
                buf.put_u64(self.tick);
                buf.put_u32(sorted.len() as u32);
                for (client, e) in sorted {
                    client.encode(&mut buf);
                    buf.put_u64(e.seq);
                    buf.put_u64(e.touched);
                    e.reply.encode(&mut buf);
                }
                buf.freeze()
            }
        }

        proptest! {
            /// Two tables of different windows, each beside its model,
            /// under random writes (evicting past the window), resets and installs of
            /// either table's export (whole, or cut short): after every
            /// step each table exports its model's bytes.
            #[test]
            fn the_lazy_lru_index_exports_what_the_eager_one_did(
                window in 1usize..5,
                ops in proptest::collection::vec(
                    (0u8..7, any::<bool>(), 0u32..10, any::<u8>()),
                    0..300,
                ),
            ) {
                let windows = [window, window + 3];
                let mut tables = windows.map(SessionTable::new);
                let mut models = windows.map(Model::new);
                for (step, &(kind, which, n, cut)) in ops.iter().enumerate() {
                    let (at, other) = if which { (1, 0) } else { (0, 1) };
                    match kind {
                        0..=4 => {
                            let id = CommandId::new(client(n), step as u64);
                            tables[at].record(id, reply(id, cut));
                            models[at].record(id, reply(id, cut));
                        }
                        5 => {
                            tables[at].reset();
                            models[at].reset();
                        }
                        _ => {
                            let frame = tables[other].export();
                            let frame = match cut {
                                0..=191 => frame,
                                _ => frame.slice(0..usize::from(cut) % frame.len()),
                            };
                            prop_assert_eq!(tables[at].install(&frame).is_ok(), cut < 192);
                            models[at].install(&frame);
                        }
                    }
                    for i in 0..2 {
                        prop_assert_eq!(tables[i].export(), models[i].export());
                    }
                }
            }
        }
    }
}
