//! Correctness checkers: total order, monotonic execution, real-time
//! (linearizability) order, read-value consistency, and replica
//! convergence.
//!
//! The paper proves (appendix, Claims 1–5) that Clock-RSM executions are
//! linearizable: all replicas execute the same commands in the same order,
//! and that order respects the real-time order of client operations. These
//! checkers verify exactly those properties on simulation histories, for
//! all four protocols — plus the read subsystem's obligation: a locally
//! served `Get` (which never appears in the replicated order) must still
//! be explainable by a single linearization point consistent with the
//! verified total order and the real-time order of completed operations
//! ([`check_read_values`]).

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use kvstore::KvOp;
use rsm_core::command::CommandId;
use rsm_core::time::Micros;
use simnet::sim::CommitRecord;

/// One client operation's real-time interval, recorded by the workload,
/// with enough payload context for the value checkers.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The command's identity.
    pub cmd_id: CommandId,
    /// When the client issued the command (virtual time).
    pub issued: Micros,
    /// When the reply reached the client, if it did.
    pub replied: Option<Micros>,
    /// The encoded operation payload (a [`KvOp`]), used by the
    /// read-value checker to replay writes and position reads.
    pub payload: Bytes,
    /// The reply's result bytes, when a reply arrived.
    pub result: Option<Bytes>,
    /// Whether the command took the local read path
    /// (`Command::read_only`).
    pub read_only: bool,
}

impl OpRecord {
    /// A write/replicated op record with no payload context (older
    /// tests and callers that only exercise the interval checkers).
    pub fn interval(cmd_id: CommandId, issued: Micros, replied: Option<Micros>) -> Self {
        OpRecord {
            cmd_id,
            issued,
            replied,
            payload: Bytes::new(),
            result: None,
            read_only: false,
        }
    }
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
    /// Every `Get` reply is consistent with some linearization point in
    /// the verified total order ([`check_read_values`]).
    pub read_values_ok: bool,
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
            read_values_ok: true,
            violation: None,
        }
    }

    /// Whether every check passed.
    pub fn all_ok(&self) -> bool {
        self.total_order_ok
            && self.monotonic_ok
            && self.real_time_ok
            && self.no_duplicates_ok
            && self.read_values_ok
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

/// Checks the real-time ordering component of linearizability (Claim 5):
/// if operation A's reply preceded operation B's issue, A must appear
/// before B in the total execution order.
///
/// `order` is the longest replica history (the most complete view of the
/// total order); `ops` are the client-observed intervals.
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

/// Checks that every locally served `Get` returned a value consistent
/// with **some** linearization point in the verified total order,
/// respecting the real-time order of completed operations (the read-side
/// counterpart of [`check_real_time`], sharing its window logic).
///
/// Local reads never appear in the replicated order, so the checker
/// *places* each one: replaying the write ops of `order` yields, per
/// key, a timeline of values; a read of key `k` that was issued at
/// `t_i` and replied at `t_r` may legally observe any value `k` held at
/// a position
///
/// * **at or after** the latest write to `k` whose reply preceded
///   `t_i` (a completed write must be visible to a later read), and
/// * **strictly before** the earliest write to `k` issued after `t_r`
///   (a write that started after the read finished must not be
///   visible).
///
/// The read passes iff its observed value (or observed absence) occurs
/// somewhere in that window. Writes the order does not contain (still
/// in flight at shutdown, or invisible because a history restarted at a
/// checkpoint install) cannot be positioned and simply do not constrain
/// the window — the check degrades gracefully rather than
/// false-positively.
pub fn check_read_values(order: &[CommitRecord], ops: &[OpRecord]) -> Result<(), String> {
    let by_id: HashMap<CommandId, &OpRecord> = ops.iter().map(|op| (op.cmd_id, op)).collect();

    /// One write as positioned in the total order (the per-key timeline
    /// vectors are in order position, so the index inside a timeline is
    /// the position we window over).
    struct WriteAt {
        issued: Micros,
        replied: Option<Micros>,
        /// The key's value after this write applied.
        value_after: Option<Bytes>,
    }

    // Replay the order's writes, simulating the kv store per key.
    let mut current: HashMap<Bytes, Bytes> = HashMap::new();
    let mut writes: HashMap<Bytes, Vec<WriteAt>> = HashMap::new();
    for rec in order {
        let Some(op) = by_id.get(&rec.cmd_id) else {
            continue; // command from outside the recorded population
        };
        let Ok(kv_op) = KvOp::decode(&op.payload) else {
            continue;
        };
        let key = kv_op.key().clone();
        let changed = match &kv_op {
            KvOp::Put { value, .. } => {
                current.insert(key.clone(), value.clone());
                true
            }
            KvOp::Delete { .. } => {
                current.remove(&key);
                true
            }
            KvOp::Cas { expect, value, .. } => {
                let matches = match (expect, current.get(&key)) {
                    (None, None) => true,
                    (Some(e), Some(v)) => e == v,
                    _ => false,
                };
                if matches {
                    current.insert(key.clone(), value.clone());
                }
                matches
            }
            KvOp::Get { .. } => false, // a replicated (fallback) read
        };
        if changed {
            writes.entry(key.clone()).or_default().push(WriteAt {
                issued: op.issued,
                replied: op.replied,
                value_after: current.get(&key).cloned(),
            });
        }
    }

    for op in ops {
        if !op.read_only {
            continue;
        }
        let (Some(replied), Some(result)) = (op.replied, op.result.as_ref()) else {
            continue; // never answered: no value to check
        };
        let Ok(KvOp::Get { key }) = KvOp::decode(&op.payload) else {
            continue;
        };
        // Reply format: status byte, then the value when found.
        let observed: Option<&[u8]> = match result.first() {
            Some(1) => Some(&result[1..]),
            _ => None,
        };
        let timeline = writes.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        // The window of legal linearization points.
        let lower = timeline
            .iter()
            .enumerate()
            .filter(|(_, w)| w.replied.is_some_and(|r| r < op.issued))
            .map(|(i, _)| i)
            .next_back();
        let upper = timeline
            .iter()
            .position(|w| w.issued > replied)
            .unwrap_or(timeline.len());
        // Values observable in the window: the state at the lower bound
        // (initial absence when there is none), plus every write applied
        // strictly inside it.
        let mut candidates: Vec<Option<&[u8]>> = Vec::new();
        match lower {
            Some(i) => candidates.push(timeline[i].value_after.as_deref()),
            None => candidates.push(None),
        }
        let from = lower.map_or(0, |i| i + 1);
        for w in &timeline[from..upper] {
            candidates.push(w.value_after.as_deref());
        }
        if !candidates.contains(&observed) {
            return Err(format!(
                "read-value violation: {:?} (key {:?}, issued {}, replied {}) \
                 observed {:?}, but the legal window over the total order \
                 holds {:?}",
                op.cmd_id,
                key,
                op.issued,
                replied,
                observed.map(|v| v.to_vec()),
                candidates
                    .iter()
                    .map(|c| c.map(|v| v.to_vec()))
                    .collect::<Vec<_>>(),
            ));
        }
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

/// Runs every check and summarizes the outcome.
pub fn check_all(histories: &[Vec<CommitRecord>], ops: &[OpRecord]) -> CheckReport {
    let total = check_total_order(histories);
    let mono = check_monotonic(histories);
    let dup = check_no_duplicates(histories);
    let longest = histories
        .iter()
        .max_by_key(|h| h.len())
        .cloned()
        .unwrap_or_default();
    let rt = check_real_time(&longest, ops);
    let rv = check_read_values(&longest, ops);
    let violation = [&total, &mono, &dup, &rt, &rv]
        .iter()
        .find_map(|r| r.as_ref().err().cloned());
    CheckReport {
        total_order_ok: total.is_ok(),
        monotonic_ok: mono.is_ok(),
        real_time_ok: rt.is_ok(),
        no_duplicates_ok: dup.is_ok(),
        read_values_ok: rv.is_ok(),
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
            OpRecord::interval(cid(1), 0, Some(100)),
            OpRecord::interval(cid(2), 200, Some(300)),
        ];
        let err = check_real_time(&order, &ops).unwrap_err();
        assert!(err.contains("real-time violation"), "{err}");
    }

    #[test]
    fn concurrent_ops_may_order_either_way() {
        // Overlapping intervals: both orders are linearizable.
        let order = vec![rec(2, 1, 5), rec(1, 2, 10)];
        let ops = vec![
            OpRecord::interval(cid(1), 0, Some(300)),
            OpRecord::interval(cid(2), 100, Some(200)),
        ];
        assert!(check_real_time(&order, &ops).is_ok());
    }

    #[test]
    fn unreplied_ops_are_tolerated() {
        let order = vec![rec(1, 1, 5)];
        let ops = vec![
            OpRecord::interval(cid(1), 0, None),
            OpRecord::interval(cid(9), 0, None), // never committed
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

    // ---------------- read-value checker ----------------

    /// A completed Put op record.
    fn put(seq: u64, key: &str, value: &str, issued: Micros, replied: Micros) -> OpRecord {
        OpRecord {
            cmd_id: cid(seq),
            issued,
            replied: Some(replied),
            payload: KvOp::put(key.to_string(), value.to_string()).encode(),
            result: Some(Bytes::from_static(&[1])),
            read_only: false,
        }
    }

    /// A locally served Get that observed `value` (None = not found).
    fn get(seq: u64, key: &str, value: Option<&str>, issued: Micros, replied: Micros) -> OpRecord {
        let result = match value {
            Some(v) => {
                let mut r = vec![1u8];
                r.extend_from_slice(v.as_bytes());
                Bytes::from(r)
            }
            None => Bytes::from_static(&[0]),
        };
        OpRecord {
            cmd_id: cid(seq),
            issued,
            replied: Some(replied),
            payload: KvOp::get(key.to_string()).encode(),
            result: Some(result),
            read_only: true,
        }
    }

    #[test]
    fn read_sees_the_latest_completed_write() {
        // w1 (k=a) replied at 100; w2 (k=b) is unrelated. A read of k
        // issued at 150 must observe "a" (there is nothing newer).
        let order = vec![rec(1, 1, 10), rec(2, 2, 20)];
        let ops = vec![
            put(1, "k", "a", 0, 100),
            put(2, "other", "x", 0, 100),
            get(3, "k", Some("a"), 150, 160),
        ];
        assert!(check_read_values(&order, &ops).is_ok());
        // Observing absence instead is a violation: w1 completed first.
        let stale = vec![
            put(1, "k", "a", 0, 100),
            put(2, "other", "x", 0, 100),
            get(3, "k", None, 150, 160),
        ];
        let err = check_read_values(&order, &stale).unwrap_err();
        assert!(err.contains("read-value violation"), "{err}");
    }

    #[test]
    fn read_may_not_see_a_superseded_value() {
        // Two writes to k, both completed before the read was issued:
        // only the later one (in the total order) is observable.
        let order = vec![rec(1, 1, 10), rec(2, 2, 20)];
        let ops = |seen| {
            vec![
                put(1, "k", "old", 0, 50),
                put(2, "k", "new", 60, 100),
                get(3, "k", Some(seen), 150, 160),
            ]
        };
        assert!(check_read_values(&order, &ops("new")).is_ok());
        assert!(check_read_values(&order, &ops("old")).is_err());
    }

    #[test]
    fn concurrent_write_window_admits_either_value() {
        // The write overlaps the read (issued before the read replied,
        // replied after the read was issued): both values are legal.
        let order = vec![rec(1, 1, 10), rec(2, 2, 20)];
        let ops = |seen: Option<&str>| {
            vec![
                put(1, "k", "a", 0, 50),
                put(2, "k", "b", 140, 300),
                get(3, "k", seen, 150, 160),
            ]
        };
        assert!(check_read_values(&order, &ops(Some("a"))).is_ok());
        assert!(check_read_values(&order, &ops(Some("b"))).is_ok());
        assert!(check_read_values(&order, &ops(None)).is_err());
    }

    #[test]
    fn read_must_not_see_a_future_write() {
        // The write was issued strictly after the read replied: its
        // value must be invisible.
        let order = vec![rec(1, 1, 10), rec(2, 2, 20)];
        let ops = vec![
            put(1, "k", "a", 0, 50),
            put(2, "k", "future", 300, 400),
            get(3, "k", Some("future"), 150, 160),
        ];
        assert!(check_read_values(&order, &ops).is_err());
    }

    #[test]
    fn unpositioned_writes_relax_but_never_break_the_check() {
        // w2 never committed (not in the order): it cannot constrain
        // the window, and a read seeing w1's value stays legal.
        let order = vec![rec(1, 1, 10)];
        let ops = vec![
            put(1, "k", "a", 0, 50),
            put(2, "k", "lost", 60, 100),
            get(3, "k", Some("a"), 150, 160),
        ];
        assert!(check_read_values(&order, &ops).is_ok());
    }

    #[test]
    fn initial_absence_is_observable_before_any_write_completes() {
        let order = vec![rec(1, 1, 10)];
        let ops = vec![
            put(1, "k", "a", 100, 300), // concurrent with the read
            get(2, "k", None, 150, 160),
        ];
        assert!(check_read_values(&order, &ops).is_ok());
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
