//! Property tests for the core vocabulary types: timestamp total order,
//! monotonic stamping, latency-matrix helper consistency, and the
//! intake rule that cuts a replica's inbox.

use std::collections::VecDeque;

use bytes::Bytes;
use proptest::prelude::*;
use rsm_core::node::{intake, Action, Input};
use rsm_core::time::MonotonicStamper;
use rsm_core::{BatchPolicy, ClientId, Command, CommandId, LatencyMatrix, ReplicaId, Timestamp};

/// The kinds of input the intake property draws.
const WRITE: u8 = 0;
const READ: u8 = 1;
const MSG: u8 = 2;

/// The input of `kind` at arrival position `pos`, a message on link
/// `link`. Every input carries its position: a command as its sequence
/// number, a message as its payload.
fn input(pos: usize, kind: u8, link: u16) -> Input<u64> {
    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), pos as u64);
    match kind {
        WRITE => Input::request(Command::new(id, Bytes::from_static(b"w"))),
        READ => Input::request(Command::read(id, Bytes::from_static(b"r"))),
        _ => Input::Msg(ReplicaId::new(link), pos as u64),
    }
}

/// The arrival positions of an action's inputs, and whether each is a
/// read.
fn positions(action: &Action<u64>) -> Vec<(usize, bool)> {
    let of = |c: &Command| (c.id.seq as usize, c.read_only);
    match action {
        Action::Batch(cmds) => cmds.iter().map(of).collect(),
        Action::Read(c) => vec![of(c)],
        Action::Msg(_, pos) => vec![(*pos as usize, false)],
    }
}

proptest! {
    /// Timestamps form a strict total order: distinct (micros, replica)
    /// pairs always compare unequal, and ordering is transitive with
    /// micros dominant.
    #[test]
    fn timestamps_total_order(
        pairs in proptest::collection::vec((0u64..1_000_000, 0u16..16), 2..50),
    ) {
        let ts: Vec<Timestamp> = pairs
            .iter()
            .map(|&(m, r)| Timestamp::new(m, ReplicaId::new(r)))
            .collect();
        for a in &ts {
            for b in &ts {
                // Strict totality: exactly one of <, ==, > holds.
                let lt = a < b;
                let gt = a > b;
                let eq = a == b;
                prop_assert_eq!(1, lt as u8 + gt as u8 + eq as u8);
                // Equality iff both fields agree.
                prop_assert_eq!(
                    eq,
                    a.micros() == b.micros() && a.replica() == b.replica()
                );
                // micros dominates replica.
                if a.micros() < b.micros() {
                    prop_assert!(a < b);
                }
            }
        }
    }

    /// The monotonic stamper is strictly increasing for ANY raw input
    /// sequence, and is the identity on strictly increasing inputs.
    #[test]
    fn stamper_invariants(raws in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut s = MonotonicStamper::new();
        let mut prev = None;
        for &raw in &raws {
            let v = s.stamp(raw);
            prop_assert!(v >= raw, "stamp never lags the clock");
            if let Some(p) = prev {
                prop_assert!(v > p, "stamps strictly increase");
            }
            prev = Some(v);
        }
        // Identity on strictly increasing inputs.
        let mut s2 = MonotonicStamper::new();
        let mut sorted: Vec<u64> = raws.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for &raw in &sorted {
            prop_assert_eq!(s2.stamp(raw), raw);
        }
    }

    /// Matrix helpers agree with first-principles recomputation.
    #[test]
    fn matrix_helpers_from_first_principles(
        vals in proptest::collection::vec(1u64..100_000, 10), // C(5,2)
        r in 0u16..5,
    ) {
        let n = 5;
        let mut m = vec![vec![0u64; n]; n];
        let mut it = vals.into_iter();
        #[allow(clippy::needless_range_loop)] // triangular fill is clearest with indices
        for i in 0..n {
            for j in (i + 1)..n {
                let v = it.next().expect("10 values");
                m[i][j] = v;
                m[j][i] = v;
            }
        }
        let matrix = LatencyMatrix::from_one_way_micros(m.clone());
        let r_id = ReplicaId::new(r);
        let mut dists: Vec<u64> = m[r as usize].clone();
        dists.sort_unstable();
        prop_assert_eq!(matrix.median_from(r_id), dists[n / 2]);
        prop_assert_eq!(matrix.max_from(r_id), *dists.last().expect("non-empty"));
        // The majority interpretation: at least ⌈(n+1)/2⌉ replicas
        // (including r itself) are within median_from.
        let within = m[r as usize]
            .iter()
            .filter(|&&d| d <= matrix.median_from(r_id))
            .count();
        prop_assert!(within > n / 2);
    }

    /// The intake rule over random arrivals of writes, reads and the
    /// messages of two or three links, under caps 1 to 8, cut step by
    /// step until the input runs out, as a scheduler's drain does.
    #[test]
    fn intake_keeps_every_order_and_fills_every_batch(
        arrivals in proptest::collection::vec((0u8..3, 0u16..3), 0..60),
        links in 2u16..4,
        cap in 1usize..9,
    ) {
        let kinds: Vec<(u8, u16)> = arrivals.iter().map(|&(k, l)| (k, l % links)).collect();
        let mut inputs = kinds.iter().enumerate().map(|(pos, &(k, l))| input(pos, k, l));
        let mut out = VecDeque::new();
        while let Some(first) = inputs.next() {
            intake(BatchPolicy::max(cap), first, || inputs.next(), &mut out);
        }
        let actions: Vec<Action<u64>> = out.into_iter().collect();
        // Where each input was handled: its action's index.
        let mut handled = vec![None; kinds.len()];
        for (i, action) in actions.iter().enumerate() {
            for (pos, _) in positions(action) {
                prop_assert_eq!(handled[pos], None, "input {} handled twice", pos);
                handled[pos] = Some(i);
            }
        }
        let handled: Vec<usize> = handled
            .into_iter()
            .map(|h| h.expect("every input handled"))
            .collect();
        let is_write = |pos: usize| kinds[pos].0 == WRITE;

        // Every write lands in exactly one batch, in arrival order; every
        // batch is non-empty, no larger than the cap, and writes only.
        let mut batched = Vec::new();
        for action in &actions {
            if let Action::Batch(cmds) = action {
                let size = cmds.len();
                prop_assert!(size > 0 && size <= cap, "batch of {}", size);
                for (pos, read_only) in positions(action) {
                    prop_assert!(!read_only, "read {} joined a batch", pos);
                    batched.push(pos);
                }
            }
        }
        let writes: Vec<usize> = (0..kinds.len()).filter(|&p| is_write(p)).collect();
        prop_assert_eq!(&batched, &writes);

        // A read is handled after every write that arrived before it and
        // before every write that arrived after it.
        for (p, &(kind, _)) in kinds.iter().enumerate() {
            if kind != READ {
                continue;
            }
            for &w in &writes {
                let before = handled[w] < handled[p];
                prop_assert_eq!(before, w < p, "read {} and write {}", p, w);
            }
        }

        // Each link's messages keep their order.
        for link in 0..links {
            let msgs: Vec<usize> = actions
                .iter()
                .filter_map(|a| match a {
                    Action::Msg(from, pos) if from.as_u16() == link => Some(*pos as usize),
                    _ => None,
                })
                .collect();
            let fifo = msgs.windows(2).all(|w| w[0] < w[1]);
            prop_assert!(fifo, "link {} reordered: {:?}", link, msgs);
        }

        // No message waits past the end of the run it arrived in: it
        // overtakes nothing, and only the writes of one batch, the one
        // open when it arrived, overtake it.
        for (p, &(kind, _)) in kinds.iter().enumerate() {
            if kind != MSG {
                continue;
            }
            let mut overtakers = Vec::new();
            for (q, &at) in handled.iter().enumerate() {
                if q < p {
                    prop_assert!(at < handled[p], "message {} overtook input {}", p, q);
                } else if q > p && at < handled[p] {
                    prop_assert!(is_write(q), "input {} overtook message {}", q, p);
                    overtakers.push(at);
                }
            }
            if let Some(&batch) = overtakers.first() {
                let one_batch = overtakers.iter().all(|&at| at == batch);
                prop_assert!(one_batch, "message {} waited past its run", p);
                let opened_before = positions(&actions[batch]).iter().any(|&(w, _)| w < p);
                prop_assert!(opened_before, "message {} waited for a later run", p);
            }
        }

        // A run ends only at a read, the cap or the end of input: past
        // the messages behind it, a batch below the cap is never
        // followed by a write.
        for action in &actions {
            if let Action::Batch(cmds) = action {
                if cmds.len() < cap {
                    let last = cmds.last().expect("non-empty").id.seq as usize;
                    let next = kinds[last + 1..].iter().find(|&&(k, _)| k != MSG);
                    let ended = next.is_none_or(|&(k, _)| k == READ);
                    prop_assert!(ended, "batch ending at {} cut short", last);
                }
            }
        }
    }
}
