//! Correctness checkers: the linearizability of what clients saw, the
//! replicas' total order, monotonic execution and real-time order, and
//! cross-shard snapshot cuts.
//!
//! The paper proves (appendix, Claims 1–5) that Clock-RSM executions are
//! linearizable: all replicas execute the same commands in the same order,
//! and that order respects the real-time order of client operations.
//! [`check_linearizable`] checks the claim itself, exactly, from the
//! client operations alone — every reply, locally served reads included,
//! must be explained by one sequential order of the key-value store that
//! respects real time. The replica-side checkers verify the mechanism
//! the proof rests on, for all four protocols: one total order
//! ([`check_total_order`]), executed in order ([`check_monotonic`]), once
//! ([`check_no_duplicates`]), and consistent with real time at every
//! replica ([`check_real_time`]).

use std::collections::{BTreeMap, HashMap, HashSet};

use bytes::Bytes;
use kvstore::KvOp;
use rsm_core::command::CommandId;
use rsm_core::time::Micros;
use simnet::sim::CommitRecord;

/// One client operation as its client saw it: the real-time interval,
/// the payload and the result.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The command's identity.
    pub cmd_id: CommandId,
    /// When the client issued the command, in µs of one clock shared by
    /// every record of a history (simnet's virtual time, or wall-clock
    /// time since a fixed instant).
    pub issued: Micros,
    /// When the reply reached the client, if it did.
    pub replied: Option<Micros>,
    /// The encoded operation payload (a [`KvOp`]), which
    /// [`check_linearizable`] runs against its register model.
    pub payload: Bytes,
    /// The reply's result bytes, when a reply arrived.
    pub result: Option<Bytes>,
    /// Whether the command took the local read path
    /// (`Command::read_only`).
    pub read_only: bool,
}

/// The outcome of all history checks; every flag should be true.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Every pair of replica histories agrees on a common prefix.
    pub total_order_ok: bool,
    /// Execution order coordinates strictly increase at every replica.
    pub monotonic_ok: bool,
    /// The commit order respects the real-time order of client operations.
    pub real_time_ok: bool,
    /// No command executed twice at any replica.
    pub no_duplicates_ok: bool,
    /// The client-observed history is linearizable
    /// ([`check_linearizable`]).
    pub linearizable_ok: bool,
    /// Human-readable description of the first violation found, if any.
    pub violation: Option<String>,
}

impl CheckReport {
    /// A report with every flag green (used when op recording is off).
    pub fn trivially_ok() -> Self {
        CheckReport {
            total_order_ok: true,
            monotonic_ok: true,
            real_time_ok: true,
            no_duplicates_ok: true,
            linearizable_ok: true,
            violation: None,
        }
    }

    /// Whether every check passed.
    pub fn all_ok(&self) -> bool {
        self.total_order_ok
            && self.monotonic_ok
            && self.real_time_ok
            && self.no_duplicates_ok
            && self.linearizable_ok
    }
}

/// Checks that all replica histories are consistent fragments of one
/// total order (the paper's Claim 2).
///
/// A replica's history need not be contiguous: one that recovered from
/// a **checkpoint** — its own at restart, or a peer's installed by a
/// state-transfer rejoin — covers part of the stream with a snapshot,
/// which records no per-command entries, so its history can begin (or
/// resume) mid-stream with commands missing anywhere a snapshot
/// covered. What a total order does guarantee is *relative* agreement:
/// restricted to the commands two replicas both executed, their
/// histories must be the identical sequence. The checker verifies
/// exactly that, pairwise.
pub fn check_total_order(histories: &[Vec<CommitRecord>]) -> Result<(), String> {
    for (i, a) in histories.iter().enumerate() {
        for (j, b) in histories.iter().enumerate().skip(i + 1) {
            let in_a: HashSet<CommandId> = a.iter().map(|r| r.cmd_id).collect();
            let in_b: HashSet<CommandId> = b.iter().map(|r| r.cmd_id).collect();
            let fa = a.iter().filter(|r| in_b.contains(&r.cmd_id));
            let fb = b.iter().filter(|r| in_a.contains(&r.cmd_id));
            for (k, (ra, rb)) in fa.zip(fb).enumerate() {
                if ra.cmd_id != rb.cmd_id {
                    return Err(format!(
                        "total order violation: common command {k} differs \
                         between replica {i} ({:?}) and replica {j} ({:?})",
                        ra.cmd_id, rb.cmd_id
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Checks that each replica's execution-order coordinates strictly
/// increase (Claim 1 — commands execute in timestamp/instance order).
pub fn check_monotonic(histories: &[Vec<CommitRecord>]) -> Result<(), String> {
    for (i, h) in histories.iter().enumerate() {
        for w in h.windows(2) {
            if w[0].order_hint >= w[1].order_hint {
                return Err(format!(
                    "monotonicity violation at replica {i}: {} then {}",
                    w[0].order_hint, w[1].order_hint
                ));
            }
        }
    }
    Ok(())
}

/// Checks that no command appears twice in any replica's history.
pub fn check_no_duplicates(histories: &[Vec<CommitRecord>]) -> Result<(), String> {
    for (i, h) in histories.iter().enumerate() {
        let mut seen: HashMap<CommandId, usize> = HashMap::with_capacity(h.len());
        for (k, rec) in h.iter().enumerate() {
            if let Some(prev) = seen.insert(rec.cmd_id, k) {
                return Err(format!(
                    "duplicate execution at replica {i}: {:?} at positions {prev} and {k}",
                    rec.cmd_id
                ));
            }
        }
    }
    Ok(())
}

/// Checks the real-time ordering component of linearizability (Claim 5)
/// across keys: if operation A's reply preceded operation B's issue, A
/// must appear before B in the total execution order.
///
/// `order` is one replica's history; `ops` are the client-observed
/// intervals. Commands the history lacks are not constrained.
pub fn check_real_time(order: &[CommitRecord], ops: &[OpRecord]) -> Result<(), String> {
    let pos: HashMap<CommandId, usize> = order
        .iter()
        .enumerate()
        .map(|(i, r)| (r.cmd_id, i))
        .collect();

    // Sweep events in time order, tracking the maximum executed position
    // among operations that have already replied. Any operation issued
    // after that reply must order later.
    #[derive(Debug)]
    enum Ev {
        Reply(Micros, usize), // (time, position in order)
        Issue(Micros, CommandId, usize),
    }
    let mut events: Vec<Ev> = Vec::with_capacity(ops.len() * 2);
    for op in ops {
        let Some(&p) = pos.get(&op.cmd_id) else {
            continue; // never committed in the observed window
        };
        events.push(Ev::Issue(op.issued, op.cmd_id, p));
        if let Some(r) = op.replied {
            events.push(Ev::Reply(r, p));
        }
    }
    // Replies strictly before issues at the same instant: "finished before
    // began" requires strict precedence, so process issues first on ties.
    events.sort_by_key(|e| match *e {
        Ev::Issue(t, _, _) => (t, 0u8),
        Ev::Reply(t, _) => (t, 1u8),
    });

    let mut max_replied_pos: Option<(usize, Micros)> = None;
    for ev in events {
        match ev {
            Ev::Reply(t, p) => {
                if max_replied_pos.is_none_or(|(mp, _)| p > mp) {
                    max_replied_pos = Some((p, t));
                }
            }
            Ev::Issue(t, id, p) => {
                if let Some((mp, rt)) = max_replied_pos {
                    if mp > p {
                        return Err(format!(
                            "real-time violation: {id:?} issued at {t} executes at \
                             position {p}, before an operation that replied at {rt} \
                             (position {mp})"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Checks that the history clients saw is linearizable against the
/// key-value store's sequential semantics: Claims 1–5 judged from the
/// [`OpRecord`]s alone.
///
/// A key-value history is linearizable iff each key's sub-history is
/// (locality, Herlihy & Wing 1990). Each key gets a Wing–Gong search with
/// Lowe's memo of (linearized set, value) ("Testing for
/// linearizability", 2017), iterative because one key can hold
/// thousands of operations.
///
/// * **The model** is [`KvStore`](kvstore::KvStore) on one key, result
///   bytes included: `Put` answers `[1]`, `Get` `[1, value…]` or `[0]`,
///   `Delete` whether the key was present, and `Cas` whether the key
///   held its expectation (`None`: absent), writing only then.
/// * **Real time.** An operation takes effect once between its issue and
///   its reply. An issue at the instant of another operation's reply is
///   concurrent with it, as in [`check_real_time`].
/// * **Pending operations.** One that never replied may take effect at
///   any point after its issue, or never. An unreplied `Get` is dropped,
///   and so is a payload that is not a [`KvOp`].
///
/// A violation names the key, the operation no linearization could
/// place (id, interval, observed result), and the value the key held at
/// the deepest linearized prefix the search reached.
pub fn check_linearizable(ops: &[OpRecord]) -> Result<(), String> {
    let mut by_key: BTreeMap<Bytes, Vec<(&OpRecord, KvOp)>> = BTreeMap::new();
    for op in ops {
        match KvOp::decode(&op.payload) {
            Ok(KvOp::Get { .. }) if op.result.is_none() => {}
            Ok(kv_op) => by_key
                .entry(kv_op.key().clone())
                .or_default()
                .push((op, kv_op)),
            Err(_) => {}
        }
    }
    by_key
        .iter()
        .try_for_each(|(key, key_ops)| search_key(key, key_ops))
}

/// The key's value after `op` takes effect while it holds `state`, or
/// `None` when the recorded `result` is not what the store answers there.
fn step(op: &KvOp, result: Option<&[u8]>, state: &Option<Bytes>) -> Option<Option<Bytes>> {
    let answers = |status: bool| result.is_none_or(|r| r == [u8::from(status)]);
    match op {
        KvOp::Put { value, .. } => answers(true).then(|| Some(value.clone())),
        KvOp::Delete { .. } => answers(state.is_some()).then_some(None),
        KvOp::Cas { expect, value, .. } => {
            let matched = expect == state;
            answers(matched).then(|| {
                if matched {
                    Some(value.clone())
                } else {
                    state.clone()
                }
            })
        }
        KvOp::Get { .. } => {
            let fits = result.is_none_or(|r| match state {
                Some(v) => r.first() == Some(&1) && r[1..] == v[..],
                None => r == [0],
            });
            fits.then(|| state.clone())
        }
    }
}

/// The Wing–Gong search over one key's operations. Their calls and
/// replies are ordered by time, a call before a reply at the same
/// instant and replies that never came last; linearizing an operation
/// lifts both out. Scanning from the first live event, the search
/// linearizes the first call the model accepts in an unexplored
/// configuration and rescans, or meets a reply — that operation ran
/// out of time — and backtracks. It succeeds once every replied
/// operation is linearized.
fn search_key(key: &Bytes, ops: &[(&OpRecord, KvOp)]) -> Result<(), String> {
    // (time, is a reply, operation)
    let mut events: Vec<(Micros, bool, usize)> = ops
        .iter()
        .enumerate()
        .flat_map(|(i, (rec, _))| {
            let replied = rec.replied.unwrap_or(Micros::MAX);
            [(rec.issued, false, i), (replied, true, i)]
        })
        .collect();
    events.sort_unstable();
    let mut reply_at = vec![0; ops.len()];
    for (e, &(_, is_reply, i)) in events.iter().enumerate() {
        if is_reply {
            reply_at[i] = e;
        }
    }
    let mut lifted = vec![false; events.len()];
    let mut linearized = vec![0u64; ops.len().div_ceil(64)];
    let mut memo: HashSet<(Box<[u64]>, Option<Bytes>)> = HashSet::new();
    // (call event, the value before it)
    let mut stack: Vec<(usize, Option<Bytes>)> = Vec::new();
    let mut state: Option<Bytes> = None;
    // (depth, the operation that ran out of time there, the value)
    let mut deepest: Option<(usize, usize, Option<Bytes>)> = None;
    let mut left = ops.iter().filter(|(rec, _)| rec.replied.is_some()).count();
    let (mut head, mut e) = (0, 0); // every event before `head` is lifted
    while left > 0 {
        if lifted[e] {
            head += usize::from(e == head);
            e += 1;
            continue;
        }
        let (_, is_reply, i) = events[e];
        let (rec, op) = &ops[i];
        if !is_reply {
            if let Some(after) = step(op, rec.result.as_deref(), &state) {
                linearized[i / 64] ^= 1 << (i % 64);
                if memo.insert((linearized.as_slice().into(), after.clone())) {
                    stack.push((e, std::mem::replace(&mut state, after)));
                    (lifted[e], lifted[reply_at[i]]) = (true, true);
                    left -= usize::from(rec.replied.is_some());
                    e = head;
                    continue;
                }
                linearized[i / 64] ^= 1 << (i % 64);
            }
            e += 1;
            continue;
        }
        if deepest.as_ref().is_none_or(|d| stack.len() > d.0) {
            deepest = Some((stack.len(), i, state.clone()));
        }
        let Some((call, before)) = stack.pop() else {
            let (depth, i, held) = deepest.expect("recorded at this reply");
            let rec = ops[i].0;
            return Err(format!(
                "linearizability violation on key {key:?}: no linearization of \
                 its {} operations places {:?} (issued {}, replied {}, observed \
                 {:?}); at the deepest linearized prefix ({depth} operations) \
                 the key held {held:?}",
                ops.len(),
                rec.cmd_id,
                rec.issued,
                rec.replied.unwrap_or(Micros::MAX),
                rec.result,
            ));
        };
        let j = events[call].2;
        linearized[j / 64] ^= 1 << (j % 64);
        state = before;
        (lifted[call], lifted[reply_at[j]]) = (false, false);
        left += usize::from(ops[j].0.replied.is_some());
        head = head.min(call);
        e = call + 1;
    }
    Ok(())
}

/// One completed cross-shard snapshot read, as recorded by the sharded
/// driver: the multi-key read's real-time interval plus what it observed
/// per key.
#[derive(Debug, Clone)]
pub struct SnapshotRecord {
    /// When the multi-key read was (last) issued.
    pub issued: Micros,
    /// When its final part's reply arrived.
    pub replied: Micros,
    /// The keys read.
    pub keys: Vec<Bytes>,
    /// Per-key observed value (`None` = key absent at the cut),
    /// parallel to `keys`.
    pub values: Vec<Option<Bytes>>,
}

/// Checks that every cross-shard snapshot read observed **one**
/// consistent cut: a single moment `T` must explain all of its per-key
/// values simultaneously — the torn-state detector for sharded runs.
///
/// The per-shard total orders say nothing about cross-shard cuts, so the
/// checker works from client-observed intervals alone, intersecting the
/// necessary conditions on `T` for a snapshot issued at `i` and replied
/// at `r`:
///
/// * `T ≥ i` — a write completed before the snapshot began must be
///   visible (freshness; the driver pins cuts at least a skew-covering
///   lead past issue, see [`crate::shard`]);
/// * `T ≥ issued(W) − skew` for every observed write `W` — a value
///   cannot be visible before its write began;
/// * `T < replied(X) + skew` for every write `X` on an observed key that
///   real-time-follows the observed write (`issued(X) > replied(W)`),
///   and for *every* replied write on a key observed **absent** — a
///   write that committed at or before the cut would have been in it.
///
/// `skew_us` is the clock model's maximum offset: commit timestamps live
/// in the replicas' loosely-synchronized clock domain, so real-time
/// bounds derived from them are only tight to within one offset. Pass 0
/// for perfect clocks.
///
/// The write matching a key's observed value is found by payload; the
/// sharded driver writes per-`(client, seq)` unique values, so the match
/// is unambiguous. A value matching no recorded write is a violation; a
/// value matching several (duplicate values, e.g. hand-built histories)
/// drops that key's constraints rather than guessing. Only `Put` writes
/// participate — the sharded workload issues no `Cas`/`Delete`.
pub fn check_snapshot_reads(
    ops: &[OpRecord],
    snaps: &[SnapshotRecord],
    skew_us: Micros,
) -> Result<(), String> {
    struct PutAt {
        issued: Micros,
        replied: Option<Micros>,
        value: Bytes,
    }
    let mut puts: HashMap<Bytes, Vec<PutAt>> = HashMap::new();
    for op in ops {
        if op.read_only {
            continue;
        }
        let Ok(KvOp::Put { key, value }) = KvOp::decode(&op.payload) else {
            continue;
        };
        puts.entry(key).or_default().push(PutAt {
            issued: op.issued,
            replied: op.replied,
            value,
        });
    }

    for (s, snap) in snaps.iter().enumerate() {
        // lo is the latest lower bound on T, hi the earliest *strict*
        // upper bound; the snapshot is explainable iff lo < hi.
        let mut lo = snap.issued;
        let mut hi = Micros::MAX;
        for (key, observed) in snap.keys.iter().zip(&snap.values) {
            let timeline = puts.get(key).map(Vec::as_slice).unwrap_or(&[]);
            match observed {
                Some(v) => {
                    let mut matches = timeline.iter().filter(|w| w.value == *v);
                    let Some(w) = matches.next() else {
                        return Err(format!(
                            "snapshot violation: read {s} (issued {}, replied {}) \
                             observed a value on key {key:?} that no recorded \
                             write produced",
                            snap.issued, snap.replied
                        ));
                    };
                    if matches.next().is_some() {
                        continue; // ambiguous value: no constraint
                    }
                    lo = lo.max(w.issued.saturating_sub(skew_us));
                    if let Some(w_replied) = w.replied {
                        for x in timeline {
                            if x.issued > w_replied {
                                if let Some(x_replied) = x.replied {
                                    hi = hi.min(x_replied.saturating_add(skew_us));
                                }
                            }
                        }
                    }
                }
                None => {
                    for x in timeline {
                        if let Some(x_replied) = x.replied {
                            hi = hi.min(x_replied.saturating_add(skew_us));
                        }
                    }
                }
            }
        }
        if lo >= hi {
            return Err(format!(
                "snapshot violation: read {s} over keys {:?} (issued {}, \
                 replied {}) admits no single cut: every cut T needs \
                 T >= {lo} and T < {hi} — the observed values are torn \
                 or stale",
                snap.keys, snap.issued, snap.replied
            ));
        }
    }
    Ok(())
}

/// Runs every check and summarizes the outcome: the replica-side checks
/// over `histories` (real time at every replica), and linearizability
/// over `ops`.
pub fn check_all(histories: &[Vec<CommitRecord>], ops: &[OpRecord]) -> CheckReport {
    let total = check_total_order(histories);
    let mono = check_monotonic(histories);
    let dup = check_no_duplicates(histories);
    let rt = histories
        .iter()
        .enumerate()
        .try_for_each(|(i, h)| check_real_time(h, ops).map_err(|e| format!("replica {i}: {e}")));
    let lin = check_linearizable(ops);
    let violation = [&total, &mono, &dup, &rt, &lin]
        .iter()
        .find_map(|r| r.as_ref().err().cloned());
    CheckReport {
        total_order_ok: total.is_ok(),
        monotonic_ok: mono.is_ok(),
        real_time_ok: rt.is_ok(),
        no_duplicates_ok: dup.is_ok(),
        linearizable_ok: lin.is_ok(),
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_core::id::{ClientId, ReplicaId};

    fn cid(seq: u64) -> CommandId {
        CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq)
    }

    /// A write record with no payload, for the interval checkers.
    fn interval(cmd_id: CommandId, issued: Micros, replied: Option<Micros>) -> OpRecord {
        OpRecord {
            cmd_id,
            issued,
            replied,
            payload: Bytes::new(),
            result: None,
            read_only: false,
        }
    }

    fn rec(seq: u64, hint: u64, at: Micros) -> CommitRecord {
        CommitRecord {
            at,
            order_hint: hint,
            origin: ReplicaId::new(0),
            cmd_id: cid(seq),
        }
    }

    #[test]
    fn consistent_prefixes_pass() {
        let a = vec![rec(1, 1, 10), rec(2, 2, 20), rec(3, 3, 30)];
        let b = vec![rec(1, 1, 12), rec(2, 2, 25)];
        assert!(check_total_order(&[a, b]).is_ok());
    }

    #[test]
    fn diverging_histories_fail() {
        // Both replicas executed 2 and 3, in opposite orders: no single
        // total order explains that.
        let a = vec![rec(1, 1, 10), rec(2, 2, 20), rec(3, 3, 30)];
        let b = vec![rec(1, 1, 12), rec(3, 2, 25), rec(2, 3, 35)];
        let err = check_total_order(&[a, b]).unwrap_err();
        assert!(err.contains("common command 1"), "{err}");
    }

    #[test]
    fn snapshot_gapped_history_aligns() {
        // Replica b recovered from a checkpoint: its history starts at
        // the second command. Consistent overlap must pass.
        let a = vec![rec(1, 1, 10), rec(2, 2, 20), rec(3, 3, 30)];
        let b = vec![rec(2, 2, 25), rec(3, 3, 35)];
        assert!(check_total_order(&[a.clone(), b]).is_ok());
        // Replica c rejoined through a state transfer that installed a
        // peer snapshot covering command 2: a MID-stream hole, equally
        // fine (the snapshot recorded no per-command entries).
        let c = vec![rec(1, 1, 12), rec(3, 3, 35), rec(4, 4, 45)];
        assert!(check_total_order(&[a.clone(), c]).is_ok());
        // But reordering shared commands must still fail.
        let d = vec![rec(3, 1, 25), rec(1, 3, 35)];
        assert!(check_total_order(&[a, d]).is_err());
    }

    #[test]
    fn monotonic_hints_checked() {
        let good = vec![rec(1, 5, 10), rec(2, 9, 20)];
        assert!(check_monotonic(&[good]).is_ok());
        let bad = vec![rec(1, 9, 10), rec(2, 5, 20)];
        assert!(check_monotonic(&[bad]).is_err());
    }

    #[test]
    fn duplicate_detection() {
        let h = vec![rec(1, 1, 10), rec(1, 2, 20)];
        assert!(check_no_duplicates(&[h]).is_err());
    }

    #[test]
    fn real_time_ordering_enforced() {
        // A replied at t=100; B issued at t=200 but executed earlier.
        let order = vec![rec(2, 1, 5), rec(1, 2, 10)]; // B before A in order
        let ops = vec![
            interval(cid(1), 0, Some(100)),
            interval(cid(2), 200, Some(300)),
        ];
        let err = check_real_time(&order, &ops).unwrap_err();
        assert!(err.contains("real-time violation"), "{err}");
    }

    #[test]
    fn concurrent_ops_may_order_either_way() {
        // Overlapping intervals: both orders are linearizable.
        let order = vec![rec(2, 1, 5), rec(1, 2, 10)];
        let ops = vec![
            interval(cid(1), 0, Some(300)),
            interval(cid(2), 100, Some(200)),
        ];
        assert!(check_real_time(&order, &ops).is_ok());
    }

    #[test]
    fn unreplied_ops_are_tolerated() {
        let order = vec![rec(1, 1, 5)];
        let ops = vec![
            interval(cid(1), 0, None),
            interval(cid(9), 0, None), // never committed
        ];
        assert!(check_real_time(&order, &ops).is_ok());
    }

    #[test]
    fn check_all_aggregates() {
        let a = vec![rec(1, 1, 10), rec(2, 2, 20)];
        let report = check_all(&[a], &[]);
        assert!(report.all_ok());
        assert!(report.violation.is_none());
    }

    #[test]
    fn real_time_is_checked_at_every_replica() {
        // Replica 1 executed B before A, which replied before B was
        // issued; replica 0's longer history, which lacks B, does not
        // hide that.
        let ops = vec![
            interval(cid(1), 0, Some(100)),
            interval(cid(2), 200, Some(300)),
        ];
        let a = vec![rec(1, 1, 10), rec(3, 3, 30), rec(4, 4, 40)];
        let b = vec![rec(2, 1, 220), rec(1, 2, 230)];
        assert!(check_real_time(&a, &ops).is_ok());
        let report = check_all(&[a, b], &ops);
        assert!(report.total_order_ok && !report.real_time_ok);
        let violation = report.violation.unwrap();
        assert!(violation.starts_with("replica 1: "), "{violation}");
    }

    // ---------------- linearizability checker ----------------

    fn kv_op(seq: u64, op: KvOp, result: &[u8], issued: Micros, replied: Micros) -> OpRecord {
        OpRecord {
            cmd_id: cid(seq),
            issued,
            replied: Some(replied),
            read_only: matches!(op, KvOp::Get { .. }),
            payload: op.encode(),
            result: Some(Bytes::from(result.to_vec())),
        }
    }

    /// A completed Put op record.
    fn put(seq: u64, key: &str, value: &str, issued: Micros, replied: Micros) -> OpRecord {
        kv_op(
            seq,
            KvOp::put(key.to_string(), value.to_string()),
            &[1],
            issued,
            replied,
        )
    }

    /// A locally served Get that observed `value` (None = not found).
    fn get(seq: u64, key: &str, value: Option<&str>, issued: Micros, replied: Micros) -> OpRecord {
        let result = match value {
            Some(v) => [&[1u8][..], v.as_bytes()].concat(),
            None => vec![0],
        };
        kv_op(seq, KvOp::get(key.to_string()), &result, issued, replied)
    }

    /// A Delete that answered whether the key was present.
    fn del(seq: u64, key: &str, present: bool, issued: Micros, replied: Micros) -> OpRecord {
        let op = KvOp::Delete {
            key: key.to_string().into(),
        };
        kv_op(seq, op, &[u8::from(present)], issued, replied)
    }

    /// A Cas of `key` from `expect` (None = absent) to `value`, issued at
    /// 0 and replied at 50, that answered whether it matched.
    fn cas(seq: u64, key: &str, expect: Option<&str>, value: &str, matched: bool) -> OpRecord {
        let expect = expect.map(|e| Bytes::from(e.as_bytes().to_vec()));
        let op = KvOp::cas(key.to_string(), expect, value.to_string());
        kv_op(seq, op, &[u8::from(matched)], 0, 50)
    }

    /// `op` with its reply lost: it never replied.
    fn pending(mut op: OpRecord) -> OpRecord {
        op.replied = None;
        op.result = None;
        op
    }

    /// The verdict table: hand-built histories and whether each is
    /// linearizable. It includes the cases a check that places client
    /// operations in one replica's history gets wrong: a write that
    /// history lacks still bounds what a later read may see, and a read
    /// may see a write no history holds yet.
    #[test]
    fn verdict_table() {
        // A read of k after w1 completed; w2 is another key's.
        let latest = |seen| {
            vec![
                put(1, "k", "a", 0, 100),
                put(2, "other", "x", 0, 100),
                get(3, "k", seen, 150, 160),
            ]
        };
        // Two writes to k, both completed before the read.
        let superseded = |seen| {
            vec![
                put(1, "k", "old", 0, 50),
                put(2, "k", "new", 60, 100),
                get(3, "k", Some(seen), 150, 160),
            ]
        };
        // The second write overlaps the read.
        let overlapping = |seen| {
            vec![
                put(1, "k", "a", 0, 50),
                put(2, "k", "b", 140, 300),
                get(3, "k", seen, 150, 160),
            ]
        };
        // As a replica that installed a snapshot covering write 1 would
        // record it: its history holds only write 2.
        let installed = |seen| {
            vec![
                put(1, "k", "a", 0, 50),
                put(2, "other", "x", 60, 100),
                put(4, "k", "late", 300, 400),
                get(3, "k", seen, 150, 160),
            ]
        };
        let mut installed_bounded = installed(Some("a"));
        installed_bounded.push(put(5, "k", "b", 110, 120));
        // Write 1 never replied; Cas 4 answered that its expectation
        // failed.
        let no_effect = |seen| {
            vec![
                pending(put(1, "k", "lost", 0, 50)),
                cas(4, "k", Some("x"), "cas", false),
                put(2, "other", "x", 60, 100),
                get(3, "k", Some(seen), 150, 160),
            ]
        };
        // A Cas from "a" to "c" whose reply was lost.
        let pending_cas = |expect, seen| {
            vec![
                put(1, "k", "a", 0, 40),
                pending(cas(2, "k", Some(expect), "c", true)),
                get(3, "k", Some(seen), 150, 160),
            ]
        };

        let rows: Vec<(&str, Vec<OpRecord>, bool)> = vec![
            ("latest completed write is read", latest(Some("a")), true),
            ("absence after a completed write", latest(None), false),
            ("the later of two completed writes", superseded("new"), true),
            ("a superseded value", superseded("old"), false),
            ("overlapping write: old value", overlapping(Some("a")), true),
            ("overlapping write: new value", overlapping(Some("b")), true),
            ("overlapping write: absence", overlapping(None), false),
            // Write 1 completed before the read: "a" is the only legal
            // answer, whatever history lacks write 1.
            (
                "mid-stream: a completed write is read",
                installed(Some("a")),
                true,
            ),
            (
                "mid-stream: absence after a completed write",
                installed(None),
                false,
            ),
            (
                "mid-stream: a write issued after the reply",
                installed(Some("late")),
                false,
            ),
            (
                "mid-stream: a later completed write",
                installed_bounded,
                false,
            ),
            // Write 1 never replied: its reply may have been lost after
            // it took effect, so its value is legal to read.
            ("an unreplied write is read", no_effect("lost"), true),
            ("a failed Cas's value is read", no_effect("cas"), false),
            (
                "a future write is read",
                vec![
                    put(1, "k", "a", 0, 50),
                    put(2, "k", "future", 300, 400),
                    get(3, "k", Some("future"), 150, 160),
                ],
                false,
            ),
            // Write 2 replied before the read was issued, whatever
            // history lacks it.
            (
                "a completed write the order lacks is missed",
                vec![
                    put(1, "k", "a", 0, 50),
                    put(2, "k", "lost", 60, 100),
                    get(3, "k", Some("a"), 150, 160),
                ],
                false,
            ),
            (
                "initial absence before any write completes",
                vec![put(1, "k", "a", 100, 300), get(2, "k", None, 150, 160)],
                true,
            ),
            // A write still in flight at the end of the run, which no
            // replica history holds, may be read.
            (
                "a read observes an in-flight write",
                vec![
                    put(1, "k", "a", 0, 50),
                    pending(put(2, "k", "b", 100, 0)),
                    get(3, "k", Some("b"), 150, 160),
                ],
                true,
            ),
            // A completed Delete bounds the read even if no replica
            // history holds it.
            (
                "a stale read past a completed write the order lacks",
                vec![
                    put(1, "k", "a", 0, 50),
                    del(2, "k", true, 60, 100),
                    get(3, "k", Some("a"), 150, 160),
                ],
                false,
            ),
            (
                "an issue at the instant of a reply is concurrent",
                vec![put(1, "k", "a", 0, 100), get(2, "k", None, 100, 160)],
                true,
            ),
            (
                "an issue after a reply is not",
                vec![put(1, "k", "a", 0, 100), get(2, "k", None, 101, 160)],
                false,
            ),
            (
                "a Delete answers that the key was present",
                vec![put(1, "k", "a", 0, 50), del(2, "k", true, 60, 100)],
                true,
            ),
            (
                "a Delete of a present key answers absent",
                vec![put(1, "k", "a", 0, 50), del(2, "k", false, 60, 100)],
                false,
            ),
            (
                "a Delete of a never-written key answers present",
                vec![del(1, "k", true, 0, 50)],
                false,
            ),
            (
                "a Delete of a never-written key answers absent",
                vec![del(1, "k", false, 0, 50)],
                true,
            ),
            (
                "a pending Cas that took effect",
                pending_cas("a", "c"),
                true,
            ),
            (
                "a pending Cas that did not take effect",
                pending_cas("a", "a"),
                true,
            ),
            (
                "a pending Cas whose expectation never held",
                pending_cas("x", "c"),
                false,
            ),
            (
                "a completed Cas from absent",
                vec![cas(1, "k", None, "c", true), get(2, "k", Some("c"), 60, 70)],
                true,
            ),
            (
                "a Cas that claims a match it could not make",
                vec![put(1, "k", "a", 0, 40), cas(2, "k", Some("x"), "c", true)],
                false,
            ),
        ];
        for (name, ops, linearizable) in rows {
            let verdict = check_linearizable(&ops);
            assert_eq!(verdict.is_ok(), linearizable, "{name}: {verdict:?}");
        }
    }

    #[test]
    fn a_violation_names_its_culprit() {
        let stale = vec![
            put(1, "k", "a", 0, 50),
            put(2, "k", "b", 60, 100),
            get(3, "k", Some("a"), 150, 160),
        ];
        let err = check_linearizable(&stale).unwrap_err();
        for part in [
            "key b\"k\"".to_string(),
            format!("{:?}", cid(3)),
            "issued 150, replied 160".to_string(),
            "observed Some(b\"\\x01a\")".to_string(),
            "held Some(b\"b\")".to_string(),
        ] {
            assert!(err.contains(&part), "{part} not in {err}");
        }
    }

    #[test]
    fn one_key_of_many_operations_is_searched_without_recursion() {
        // A writer and a reader alternating on one key, 4 000 operations
        // deep, with the reader's answers lagging one write behind while
        // the writes overlap them.
        let mut ops = Vec::new();
        for v in 0..2_000u64 {
            let t = v * 100;
            ops.push(put(2 * v + 1, "k", &v.to_string(), t, t + 150));
            let seen = v.checked_sub(1).map(|p| p.to_string());
            ops.push(get(2 * v + 2, "k", seen.as_deref(), t + 10, t + 20));
        }
        assert!(check_linearizable(&ops).is_ok());
        // One stale answer deep in the history is found.
        ops[3_001] = get(3_002, "k", Some("1"), 150_010, 150_020);
        let err = check_linearizable(&ops).unwrap_err();
        assert!(err.contains(&format!("{:?}", cid(3_002))), "{err}");
    }

    // ---------------- cross-shard snapshot checker ----------------

    fn snap(issued: Micros, replied: Micros, kv: &[(&str, Option<&str>)]) -> SnapshotRecord {
        SnapshotRecord {
            issued,
            replied,
            keys: kv
                .iter()
                .map(|(k, _)| Bytes::from(k.as_bytes().to_vec()))
                .collect(),
            values: kv
                .iter()
                .map(|(_, v)| v.map(|v| Bytes::from(v.as_bytes().to_vec())))
                .collect(),
        }
    }

    /// Two keys, each written twice ("transactionally": both old values,
    /// then both new values, the second round completing before `t`).
    fn two_key_history() -> Vec<OpRecord> {
        vec![
            put(1, "a", "a1", 0, 50),
            put(2, "b", "b1", 0, 50),
            put(3, "a", "a2", 60, 100),
            put(4, "b", "b2", 60, 100),
        ]
    }

    #[test]
    fn torn_snapshot_is_caught() {
        // New a but old b, issued after both second writes completed:
        // no single cut explains it (needs T >= 150 and T < 100).
        let torn = snap(150, 200, &[("a", Some("a2")), ("b", Some("b1"))]);
        let err = check_snapshot_reads(&two_key_history(), &[torn], 0).unwrap_err();
        assert!(err.contains("snapshot violation"), "{err}");
    }

    #[test]
    fn consistent_cuts_pass() {
        let fresh = snap(150, 200, &[("a", Some("a2")), ("b", Some("b2"))]);
        assert!(check_snapshot_reads(&two_key_history(), &[fresh], 0).is_ok());
        // A snapshot concurrent with the second round may see either
        // round, as long as it is not torn.
        let early = snap(55, 70, &[("a", Some("a1")), ("b", Some("b1"))]);
        assert!(check_snapshot_reads(&two_key_history(), &[early], 0).is_ok());
    }

    #[test]
    fn stale_snapshot_is_caught() {
        // Both writes to "a" completed before the snapshot began, yet it
        // observed the first: freshness violation (T >= issue vs.
        // T < replied(a2-writer) = 100).
        let stale = snap(150, 200, &[("a", Some("a1"))]);
        let err = check_snapshot_reads(&two_key_history(), &[stale], 0).unwrap_err();
        assert!(err.contains("snapshot violation"), "{err}");
    }

    #[test]
    fn observed_absence_of_a_written_key_is_caught() {
        let ops = vec![put(1, "a", "a1", 0, 50)];
        let absent = snap(150, 200, &[("a", None)]);
        assert!(check_snapshot_reads(&ops, &[absent], 0).is_err());
        // Absence of a never-written key is fine.
        let other = snap(150, 200, &[("zzz", None)]);
        assert!(check_snapshot_reads(&ops, &[other], 0).is_ok());
    }

    #[test]
    fn concurrent_write_admits_either_value() {
        let ops = vec![
            put(1, "a", "a1", 0, 50),
            put(2, "a", "a2", 160, 300), // overlaps the snapshot
        ];
        let old = snap(150, 200, &[("a", Some("a1"))]);
        let new = snap(150, 200, &[("a", Some("a2"))]);
        assert!(check_snapshot_reads(&ops, &[old], 0).is_ok());
        assert!(check_snapshot_reads(&ops, &[new], 0).is_ok());
    }

    #[test]
    fn unknown_value_is_a_violation() {
        let ops = vec![put(1, "a", "a1", 0, 50)];
        let bogus = snap(150, 200, &[("a", Some("made-up"))]);
        let err = check_snapshot_reads(&ops, &[bogus], 0).unwrap_err();
        assert!(err.contains("no recorded write"), "{err}");
    }

    #[test]
    fn skew_slack_relaxes_the_real_time_bounds() {
        // Torn by 50 µs with perfect clocks; a ±60 µs skew budget makes
        // the cut admissible (bounds are only skew-tight).
        let ops = vec![put(1, "a", "a1", 0, 50), put(2, "a", "a2", 60, 100)];
        let marginal = snap(140, 200, &[("a", Some("a1"))]);
        assert!(check_snapshot_reads(&ops, std::slice::from_ref(&marginal), 0).is_err());
        assert!(check_snapshot_reads(&ops, &[marginal], 60).is_ok());
    }
}
