//! Property tests for the binary wire codec: every message variant of
//! every protocol must survive an encode → decode round trip unchanged,
//! encode to its pinned golden bytes and state its own encoded length
//! (the size the simulator prices), and the decoder must reject
//! malformed frames (truncated prefixes, trailing garbage, every tag no
//! row of the type's `TAGS` names, corrupted headers) and survive
//! mutated ones and arbitrary bytes — `Ok` or `Err`, never a panic.
//!
//! The generators are deliberately exhaustive rather than sampled: each
//! proptest case builds one instance of **every** variant of `RsmMsg`,
//! `PaxosMsg`, and `MenciusMsg` (plus all six `SynodMsg` shapes nested
//! inside `RsmMsg::Synod`) from randomized field values, so a variant
//! whose codec arm drifts can never hide behind the RNG.

use bytes::Bytes;
use clock_rsm::msg::{Decision, LoggedCmd, RsmMsg};
use mencius::msg::MenciusMsg;
use paxos::msg::{PaxosMsg, SuffixEntry};
use paxos::synod::{Ballot, SynodMsg};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rsm_core::batch::Batch;
use rsm_core::checkpoint::{CatchUp, CatchUpReply, Checkpoint};
use rsm_core::command::{Command, CommandId};
use rsm_core::config::Epoch;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::read::{ReadReply, ReadRequest};
use rsm_core::session::SessionTable;
use rsm_core::time::Timestamp;
use rsm_core::wire::{
    decode_payload, encode_payload, FrameHeader, WireDecode, WireEncode, WireError, WireSize,
    MSG_HEADER_BYTES,
};

// -----------------------------------------------------------------
// Field strategies
// -----------------------------------------------------------------

fn arb_replica() -> impl Strategy<Value = ReplicaId> {
    (0u16..5).prop_map(ReplicaId::new)
}

fn arb_ts() -> impl Strategy<Value = Timestamp> {
    (0u64..1_000_000, arb_replica()).prop_map(|(us, r)| Timestamp::new(us, r))
}

fn arb_ballot() -> impl Strategy<Value = Ballot> {
    (0u64..10_000, arb_replica()).prop_map(|(round, proposer)| Ballot { round, proposer })
}

/// A command of any of the three kinds (write, read, stable-timestamp
/// read) with a random payload, exercising the `read_only`/`read_at`
/// codec bits alongside the payload length prefix.
fn arb_cmd() -> impl Strategy<Value = Command> {
    (
        arb_replica(),
        0u32..100,
        0u64..100,
        pvec(any::<u8>(), 0..32),
        0u8..3,
        0u64..10_000,
    )
        .prop_map(|(site, client, seq, payload, kind, at)| {
            let id = CommandId::new(ClientId::new(site, client), seq);
            let payload = Bytes::from(payload);
            match kind {
                0 => Command::new(id, payload),
                1 => Command::read(id, payload),
                _ => Command::read_at(id, payload, at),
            }
        })
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    pvec(arb_cmd(), 1..4).prop_map(Batch::new)
}

fn arb_logged() -> impl Strategy<Value = LoggedCmd> {
    (arb_ts(), arb_replica(), arb_cmd()).prop_map(|(ts, origin, cmd)| LoggedCmd { ts, origin, cmd })
}

fn arb_decision() -> impl Strategy<Value = Decision> {
    (
        pvec(arb_replica(), 1..4),
        arb_ts(),
        pvec(arb_logged(), 0..3),
    )
        .prop_map(|(config, cts, cmds)| Decision { config, cts, cmds })
}

fn arb_suffix_entry() -> impl Strategy<Value = SuffixEntry> {
    (
        0u64..1000,
        arb_ballot(),
        arb_cmd(),
        arb_replica(),
        any::<bool>(),
    )
        .prop_map(|(instance, ballot, cmd, origin, filled)| SuffixEntry {
            instance,
            ballot,
            value: if filled { Some((cmd, origin)) } else { None },
        })
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint<u64>> {
    (
        0u64..1000,
        0u64..50,
        pvec(arb_replica(), 1..4),
        pvec(any::<u8>(), 0..48),
        pvec(any::<u8>(), 0..32),
    )
        .prop_map(|(applied, epoch, config, snapshot, sessions)| Checkpoint {
            applied,
            epoch: Epoch(epoch),
            config,
            snapshot: Bytes::from(snapshot),
            sessions: Bytes::from(sessions),
        })
}

/// All six `SynodMsg` shapes built from the same randomized fields, so
/// `RsmMsg::Synod` covers the nested enum's codec arms too.
fn arb_synod_all() -> impl Strategy<Value = Vec<SynodMsg<Decision>>> {
    (arb_ballot(), arb_ballot(), arb_decision(), any::<bool>()).prop_map(
        |(ballot, promised, value, accepted)| {
            vec![
                SynodMsg::Prepare { ballot },
                SynodMsg::Promise {
                    ballot,
                    accepted: if accepted {
                        Some((promised, value.clone()))
                    } else {
                        None
                    },
                },
                SynodMsg::Propose {
                    ballot,
                    value: value.clone(),
                },
                SynodMsg::Accept { ballot },
                SynodMsg::Nack { ballot, promised },
                SynodMsg::Decided { value },
            ]
        },
    )
}

// -----------------------------------------------------------------
// One instance of every variant per protocol
// -----------------------------------------------------------------

fn arb_rsm_all() -> impl Strategy<Value = Vec<RsmMsg>> {
    (
        arb_batch(),
        pvec(arb_logged(), 0..3),
        arb_synod_all(),
        (0u64..50, arb_ts(), arb_replica(), arb_checkpoint()),
    )
        .prop_map(|(cmds, logged, synods, (e, ts, origin, cp))| {
            let epoch = Epoch(e);
            let checkpoint = Checkpoint {
                applied: ts,
                epoch: cp.epoch,
                config: cp.config,
                snapshot: cp.snapshot,
                sessions: cp.sessions,
            };
            let later = Timestamp::new(ts.micros() + 7, ts.replica());
            let mut msgs = vec![
                RsmMsg::PrepareBatch {
                    epoch,
                    ts,
                    origin,
                    cmds,
                },
                RsmMsg::PrepareOk {
                    epoch,
                    up_to: ts,
                    clock_ts: later,
                },
                RsmMsg::ClockTime { epoch, ts },
                RsmMsg::Suspend { epoch, cts: ts },
                RsmMsg::SuspendOk {
                    epoch,
                    cmds: logged.clone(),
                },
                RsmMsg::CatchUp {
                    decided: epoch,
                    req: CatchUp {
                        from: ts,
                        below: later,
                    },
                },
                RsmMsg::CatchUpReply(CatchUpReply::Runs {
                    from: ts,
                    below: later,
                    runs: logged,
                }),
                RsmMsg::CatchUpReply(CatchUpReply::Snapshot(checkpoint)),
                RsmMsg::ClockProbe {
                    epoch,
                    ts: later,
                    seq: e * 3,
                },
                RsmMsg::ClockEcho {
                    epoch,
                    ts,
                    seq: e * 3,
                },
            ];
            msgs.extend(synods.into_iter().map(|msg| RsmMsg::Synod { epoch, msg }));
            msgs
        })
}

fn arb_paxos_all() -> impl Strategy<Value = Vec<PaxosMsg>> {
    (
        arb_batch(),
        arb_ballot(),
        pvec(arb_suffix_entry(), 0..3),
        arb_checkpoint(),
        (0u64..1000, arb_replica()),
    )
        .prop_map(|(cmds, ballot, entries, checkpoint, (n, origin))| {
            vec![
                PaxosMsg::Forward {
                    cmds: cmds.clone(),
                    origin,
                },
                PaxosMsg::Accept {
                    ballot,
                    first_instance: n,
                    cmds,
                    origin,
                },
                PaxosMsg::Accepted { ballot, up_to: n },
                PaxosMsg::Commit { ballot, up_to: n },
                PaxosMsg::Heartbeat {
                    ballot,
                    committed: n,
                },
                PaxosMsg::Prepare {
                    ballot,
                    from_instance: n,
                },
                PaxosMsg::Promise {
                    ballot,
                    from_instance: n,
                    committed: n,
                    entries: entries.clone(),
                },
                PaxosMsg::Nack { promised: ballot },
                PaxosMsg::PreVote { ballot },
                PaxosMsg::PreVoteGrant { ballot },
                PaxosMsg::Repair {
                    ballot,
                    floor: n,
                    entries: entries.clone(),
                },
                PaxosMsg::CatchUp(CatchUp {
                    from: n,
                    below: n + 5,
                }),
                PaxosMsg::CatchUpReply {
                    promised: ballot,
                    reply: CatchUpReply::Runs {
                        from: n,
                        below: n + 5,
                        runs: entries,
                    },
                },
                PaxosMsg::CatchUpReply {
                    promised: ballot,
                    reply: CatchUpReply::Snapshot(checkpoint),
                },
                PaxosMsg::ReadProbe(ReadRequest { seq: n }),
                PaxosMsg::ReadMark(ReadReply {
                    seq: n,
                    mark: n + 1,
                }),
            ]
        })
}

fn arb_mencius_all() -> impl Strategy<Value = Vec<MenciusMsg>> {
    (
        arb_batch(),
        arb_cmd(),
        arb_checkpoint(),
        pvec(0u64..1000, 1..5),
        (0u64..1000, arb_replica()),
    )
        .prop_map(|(cmds, cmd, checkpoint, owner_marks, (n, origin))| {
            vec![
                MenciusMsg::Propose {
                    first_slot: n,
                    cmds,
                    origin,
                },
                MenciusMsg::AcceptAck {
                    up_to_slot: n,
                    skip_below: n + 3,
                },
                MenciusMsg::CatchUp(CatchUp {
                    from: n,
                    below: n + 9,
                }),
                MenciusMsg::CatchUpReply(CatchUpReply::Runs {
                    from: n,
                    below: n + 9,
                    runs: vec![(n, cmd)],
                }),
                MenciusMsg::CatchUpReply(CatchUpReply::Snapshot(checkpoint)),
                MenciusMsg::ReadProbe(ReadRequest { seq: n }),
                MenciusMsg::ReadMark {
                    reply: ReadReply { seq: n, mark: n },
                    owner_marks,
                },
            ]
        })
}

// -----------------------------------------------------------------
// Round-trip identity
// -----------------------------------------------------------------

fn assert_roundtrip<M>(msg: &M)
where
    M: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
{
    let bytes = encode_payload(msg);
    let decoded: M = decode_payload(bytes).expect("valid encoding must decode");
    assert_eq!(&decoded, msg);
}

/// Every strict prefix of a valid encoding must be rejected: the codec
/// is length-prefixed throughout, so a cut anywhere — mid-scalar,
/// mid-payload, or right after a vector's length word — leaves a
/// promised value missing.
fn assert_rejects_truncation<M>(msg: &M)
where
    M: WireEncode + WireDecode + std::fmt::Debug,
{
    let bytes = encode_payload(msg);
    for cut in 0..bytes.len() {
        let prefix = bytes.slice(0..cut);
        assert!(
            decode_payload::<M>(prefix).is_err(),
            "prefix of {cut}/{} bytes decoded for {msg:?}",
            bytes.len()
        );
    }
}

/// Garbage appended after a valid encoding must surface as
/// [`WireError::TrailingBytes`]: the decoder parses the genuine prefix
/// deterministically and then refuses the leftovers.
fn assert_rejects_trailing<M>(msg: &M, garbage: &[u8])
where
    M: WireEncode + WireDecode + std::fmt::Debug,
{
    let mut bytes = encode_payload(msg).to_vec();
    bytes.extend_from_slice(garbage);
    match decode_payload::<M>(Bytes::from(bytes)) {
        Err(WireError::TrailingBytes(n)) => assert_eq!(n, garbage.len()),
        other => panic!("expected TrailingBytes for {msg:?}, got {other:?}"),
    }
}

/// One byte edit: where (reduced modulo the encoding's length), how
/// (`0xFF`, a single-bit flip, or a random byte), and the bit / byte.
type Edit = (usize, u8, u8);

/// 1–4 edits per mutant; length words are the interesting targets.
fn arb_mutants() -> impl Strategy<Value = Vec<Vec<Edit>>> {
    pvec(pvec((any::<usize>(), 0u8..3, any::<u8>()), 1..5), 64)
}

/// A receiver decodes whatever passed the frame checksum, and a peer
/// chooses both: every mutant of a valid encoding must come back as
/// `Ok` or `Err` — a panic here is a reader thread a peer can kill.
fn assert_survives_mutation<M>(msg: &M, mutants: &[Vec<Edit>])
where
    M: WireEncode + WireDecode,
{
    let clean = encode_payload(msg);
    for edits in mutants {
        let mut bytes = clean.to_vec();
        for &(pos, how, val) in edits {
            let at = pos % bytes.len();
            match how {
                0 => bytes[at] = 0xFF,
                1 => bytes[at] ^= 1 << (val % 8),
                _ => bytes[at] = val,
            }
        }
        let _ = decode_payload::<M>(Bytes::from(bytes));
    }
}

/// Zeroes the length word of `batch` inside `msg`'s encoding (found by
/// searching for the batch's own encoding, so no field layout is
/// assumed) and expects the decoder to refuse it by name.
fn assert_rejects_empty_batch<M>(msg: &M, batch: &Batch)
where
    M: WireEncode + WireDecode + std::fmt::Debug,
{
    let mut bytes = encode_payload(msg).to_vec();
    let needle = encode_payload(batch);
    let at = bytes
        .windows(needle.len())
        .position(|w| w == &needle[..])
        .expect("message carries its batch's encoding");
    bytes[at..at + 4].fill(0);
    match decode_payload::<M>(Bytes::from(bytes)) {
        Err(WireError::EmptyBatch) => {}
        other => panic!("expected EmptyBatch for {msg:?}, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rsm_msgs_roundtrip(msgs in arb_rsm_all()) {
        for msg in &msgs {
            assert_roundtrip(msg);
        }
    }

    #[test]
    fn paxos_msgs_roundtrip(msgs in arb_paxos_all()) {
        for msg in &msgs {
            assert_roundtrip(msg);
        }
    }

    #[test]
    fn mencius_msgs_roundtrip(msgs in arb_mencius_all()) {
        for msg in &msgs {
            assert_roundtrip(msg);
        }
    }
}

/// The size the simulator prices is the frame a replica sends:
/// `encoded_len` (summed without encoding) is the length of the
/// encoding, and `wire_size` adds the frame header to it.
fn assert_sized<M>(msg: &M)
where
    M: WireEncode + WireSize + std::fmt::Debug,
{
    let len = encode_payload(msg).len();
    assert_eq!(msg.encoded_len(), len, "encoded_len of {msg:?}");
    assert_eq!(
        msg.wire_size(),
        MSG_HEADER_BYTES + len,
        "wire_size of {msg:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every value of every table: the three protocols' messages, the
    /// nested synod messages, and the structs they carry.
    #[test]
    fn sizes_are_the_encoded_lengths(
        rsm in arb_rsm_all(),
        paxos in arb_paxos_all(),
        mencius in arb_mencius_all(),
        synod in arb_synod_all(),
        (decision, logged, entry) in (arb_decision(), arb_logged(), arb_suffix_entry()),
        (checkpoint, ballot) in (arb_checkpoint(), arb_ballot()),
    ) {
        rsm.iter().for_each(assert_sized);
        paxos.iter().for_each(assert_sized);
        mencius.iter().for_each(assert_sized);
        synod.iter().for_each(assert_sized);
        assert_sized(&decision);
        assert_sized(&logged);
        assert_sized(&entry);
        assert_sized(&checkpoint);
        assert_sized(&ballot);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn truncated_encodings_are_rejected(
        rsm in arb_rsm_all(),
        paxos in arb_paxos_all(),
        mencius in arb_mencius_all(),
    ) {
        for msg in &rsm {
            assert_rejects_truncation(msg);
        }
        for msg in &paxos {
            assert_rejects_truncation(msg);
        }
        for msg in &mencius {
            assert_rejects_truncation(msg);
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(
        rsm in arb_rsm_all(),
        paxos in arb_paxos_all(),
        mencius in arb_mencius_all(),
        garbage in pvec(any::<u8>(), 1..9),
    ) {
        for msg in &rsm {
            assert_rejects_trailing(msg, &garbage);
        }
        for msg in &paxos {
            assert_rejects_trailing(msg, &garbage);
        }
        for msg in &mencius {
            assert_rejects_trailing(msg, &garbage);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_encodings_never_panic_the_decoder(
        rsm in arb_rsm_all(),
        paxos in arb_paxos_all(),
        mencius in arb_mencius_all(),
        mutants in arb_mutants(),
    ) {
        for msg in &rsm {
            assert_survives_mutation(msg, &mutants);
        }
        for msg in &paxos {
            assert_survives_mutation(msg, &mutants);
        }
        for msg in &mencius {
            assert_survives_mutation(msg, &mutants);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Bytes no encoder wrote — any buffer at all, not a mutant of a
    /// valid encoding — come back `Ok` or `Err` from every decoder a
    /// peer's frame or checkpoint reaches, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in pvec(any::<u8>(), 0..512)) {
        let bytes = Bytes::from(bytes);
        let _ = decode_payload::<RsmMsg>(bytes.clone());
        let _ = decode_payload::<PaxosMsg>(bytes.clone());
        let _ = decode_payload::<MenciusMsg>(bytes.clone());
        let _ = SessionTable::new(4).install(&bytes);
    }

    /// The same for the fixed 32-byte frame header, half the time behind
    /// a valid magic and version so the length and field reads run too.
    #[test]
    fn arbitrary_headers_never_panic_the_decoder(
        bytes in pvec(any::<u8>(), MSG_HEADER_BYTES),
        valid_prefix in any::<bool>(),
    ) {
        let mut h: [u8; MSG_HEADER_BYTES] = bytes.try_into().expect("32 bytes");
        if valid_prefix {
            let valid = FrameHeader::for_payload(ReplicaId::new(0), ReplicaId::new(1), 1, b"");
            h[..6].copy_from_slice(&valid.encode()[..6]);
        }
        let _ = FrameHeader::decode(&h);
    }
}

#[test]
fn zero_length_batches_are_rejected() {
    let origin = ReplicaId::new(1);
    let cmds = Batch::new(
        (1..=2)
            .map(|seq| {
                Command::new(
                    CommandId::new(ClientId::new(origin, 7), seq),
                    Bytes::from_static(b"put k v"),
                )
            })
            .collect(),
    );
    let ballot = Ballot {
        round: 3,
        proposer: origin,
    };
    assert_rejects_empty_batch(
        &RsmMsg::PrepareBatch {
            epoch: Epoch(1),
            ts: Timestamp::new(40, origin),
            origin,
            cmds: cmds.clone(),
        },
        &cmds,
    );
    assert_rejects_empty_batch(
        &PaxosMsg::Forward {
            cmds: cmds.clone(),
            origin,
        },
        &cmds,
    );
    assert_rejects_empty_batch(
        &PaxosMsg::Accept {
            ballot,
            first_instance: 9,
            cmds: cmds.clone(),
            origin,
        },
        &cmds,
    );
    assert_rejects_empty_batch(
        &MenciusMsg::Propose {
            first_slot: 9,
            cmds: cmds.clone(),
            origin,
        },
        &cmds,
    );
}

// -----------------------------------------------------------------
// Golden bytes
// -----------------------------------------------------------------

/// `ty::Variant` for an enum value, from its `Debug` form.
fn variant_label<M: std::fmt::Debug>(ty: &str, msg: &M) -> String {
    let debug = format!("{msg:?}");
    let end = debug.find([' ', '(', '{']).unwrap_or(debug.len());
    format!("{ty}::{}", &debug[..end])
}

fn labelled<M: WireEncode + std::fmt::Debug>(ty: &str, msgs: &[M]) -> Vec<(String, Bytes)> {
    msgs.iter()
        .map(|m| (variant_label(ty, m), encode_payload(m)))
        .collect()
}

/// One fixed value of every variant of every message enum, and of every
/// struct whose codec is its field order, each with its encoding.
fn golden_encodings() -> Vec<(String, Bytes)> {
    let (r1, r2) = (ReplicaId::new(1), ReplicaId::new(2));
    let epoch = Epoch(3);
    let ts = Timestamp::new(0x0102, r1);
    let later = Timestamp::new(0x0203, r2);
    let write = Command::new(
        CommandId::new(ClientId::new(r1, 7), 9),
        Bytes::from_static(b"pk"),
    );
    let read = Command::read_at(
        CommandId::new(ClientId::new(r2, 4), 5),
        Bytes::from_static(b"gk"),
        0x33,
    );
    let cmds = Batch::new(vec![write.clone(), read.clone()]);
    let logged = LoggedCmd {
        ts,
        origin: r1,
        cmd: write.clone(),
    };
    let decision = Decision {
        config: vec![r1, r2],
        cts: ts,
        cmds: vec![logged.clone()],
    };
    let ballot = Ballot {
        round: 6,
        proposer: r2,
    };
    let promised = Ballot {
        round: 8,
        proposer: r1,
    };
    let entry = SuffixEntry {
        instance: 12,
        ballot,
        value: Some((read.clone(), r2)),
    };
    let entries = vec![
        entry.clone(),
        SuffixEntry {
            instance: 13,
            ballot,
            value: None,
        },
    ];
    let checkpoint = Checkpoint {
        applied: 11u64,
        epoch,
        config: vec![r1],
        snapshot: Bytes::from_static(b"sn"),
        sessions: Bytes::from_static(b"se"),
    };
    let synods = vec![
        SynodMsg::Prepare { ballot },
        SynodMsg::Promise {
            ballot,
            accepted: Some((promised, decision.clone())),
        },
        SynodMsg::Propose {
            ballot,
            value: decision.clone(),
        },
        SynodMsg::Accept { ballot },
        SynodMsg::Nack { ballot, promised },
        SynodMsg::Decided {
            value: decision.clone(),
        },
    ];
    let rsm = vec![
        RsmMsg::PrepareBatch {
            epoch,
            ts,
            origin: r1,
            cmds: cmds.clone(),
        },
        RsmMsg::PrepareOk {
            epoch,
            up_to: ts,
            clock_ts: later,
        },
        RsmMsg::ClockTime { epoch, ts },
        RsmMsg::Suspend { epoch, cts: ts },
        RsmMsg::SuspendOk {
            epoch,
            cmds: vec![logged.clone()],
        },
        RsmMsg::Synod {
            epoch,
            msg: SynodMsg::Accept { ballot },
        },
        RsmMsg::CatchUp {
            decided: epoch,
            req: CatchUp {
                from: ts,
                below: later,
            },
        },
        RsmMsg::CatchUpReply(CatchUpReply::Runs {
            from: ts,
            below: later,
            runs: vec![logged.clone()],
        }),
        RsmMsg::CatchUpReply(CatchUpReply::Snapshot(Checkpoint {
            applied: ts,
            epoch,
            config: vec![r1],
            snapshot: Bytes::from_static(b"sn"),
            sessions: Bytes::new(),
        })),
        RsmMsg::ClockProbe {
            epoch,
            ts: later,
            seq: 4,
        },
        RsmMsg::ClockEcho {
            epoch,
            ts: later,
            seq: 4,
        },
    ];
    let paxos = vec![
        PaxosMsg::Forward {
            cmds: cmds.clone(),
            origin: r2,
        },
        PaxosMsg::Accept {
            ballot,
            first_instance: 12,
            cmds: cmds.clone(),
            origin: r2,
        },
        PaxosMsg::Accepted { ballot, up_to: 14 },
        PaxosMsg::Commit { ballot, up_to: 14 },
        PaxosMsg::Heartbeat {
            ballot,
            committed: 14,
        },
        PaxosMsg::Prepare {
            ballot,
            from_instance: 12,
        },
        PaxosMsg::Promise {
            ballot,
            from_instance: 12,
            committed: 11,
            entries: entries.clone(),
        },
        PaxosMsg::Nack { promised },
        PaxosMsg::Repair {
            ballot,
            floor: 12,
            entries: entries.clone(),
        },
        PaxosMsg::CatchUp(CatchUp {
            from: 12,
            below: 14,
        }),
        PaxosMsg::CatchUpReply {
            promised: ballot,
            reply: CatchUpReply::Runs {
                from: 12,
                below: 14,
                runs: entries.clone(),
            },
        },
        PaxosMsg::CatchUpReply {
            promised,
            reply: CatchUpReply::Snapshot(checkpoint.clone()),
        },
        PaxosMsg::ReadProbe(ReadRequest { seq: 5 }),
        PaxosMsg::ReadMark(ReadReply { seq: 5, mark: 14 }),
        PaxosMsg::PreVote { ballot },
        PaxosMsg::PreVoteGrant { ballot },
    ];
    let mencius = vec![
        MenciusMsg::Propose {
            first_slot: 7,
            cmds,
            origin: r1,
        },
        MenciusMsg::AcceptAck {
            up_to_slot: 7,
            skip_below: 10,
        },
        MenciusMsg::CatchUp(CatchUp { from: 4, below: 10 }),
        MenciusMsg::CatchUpReply(CatchUpReply::Runs {
            from: 4,
            below: 10,
            runs: vec![(7, write)],
        }),
        MenciusMsg::CatchUpReply(CatchUpReply::Snapshot(checkpoint.clone())),
        MenciusMsg::ReadProbe(ReadRequest { seq: 5 }),
        MenciusMsg::ReadMark {
            reply: ReadReply { seq: 5, mark: 9 },
            owner_marks: vec![9, 8, 7],
        },
    ];
    let mut out = labelled("RsmMsg", &rsm);
    out.extend(labelled("PaxosMsg", &paxos));
    out.extend(labelled("MenciusMsg", &mencius));
    out.extend(labelled("SynodMsg", &synods));
    out.push(("LoggedCmd".into(), encode_payload(&logged)));
    out.push(("Decision".into(), encode_payload(&decision)));
    out.push(("SuffixEntry".into(), encode_payload(&entry)));
    out.push(("Checkpoint".into(), encode_payload(&checkpoint)));
    out
}

/// The pinned encodings of [`golden_encodings`], in the same order.
/// Editing a row's tag or field order changes these bytes; such a change
/// bumps `WIRE_VERSION` and re-pins the vectors in the same commit.
const GOLDEN: &[(&str, &str)] = &[
    ("RsmMsg::PrepareBatch", "000000000000000003000000000000010200010001000000020001000000070000000000000009000000000002706b00020000000400000000000000050101000000000000003300000002676b"),
    ("RsmMsg::PrepareOk", "0100000000000000030000000000000102000100000000000002030002"),
    ("RsmMsg::ClockTime", "02000000000000000300000000000001020001"),
    ("RsmMsg::Suspend", "03000000000000000300000000000001020001"),
    ("RsmMsg::SuspendOk", "040000000000000003000000010000000000000102000100010001000000070000000000000009000000000002706b"),
    ("RsmMsg::Synod", "0500000000000000030300000000000000060002"),
    ("RsmMsg::CatchUp", "0600000000000000030000000000000102000100000000000002030002"),
    ("RsmMsg::CatchUpReply", "07000000000000000102000100000000000002030002000000010000000000000102000100010001000000070000000000000009000000000002706b"),
    ("RsmMsg::CatchUpReply", "070100000000000001020001000000000000000300000001000100000002736e00000000"),
    ("RsmMsg::ClockProbe", "0a0000000000000003000000000000020300020000000000000004"),
    ("RsmMsg::ClockEcho", "0c0000000000000003000000000000020300020000000000000004"),
    ("PaxosMsg::Forward", "00000000020001000000070000000000000009000000000002706b00020000000400000000000000050101000000000000003300000002676b0002"),
    ("PaxosMsg::Accept", "0100000000000000060002000000000000000c000000020001000000070000000000000009000000000002706b00020000000400000000000000050101000000000000003300000002676b0002"),
    ("PaxosMsg::Accepted", "0200000000000000060002000000000000000e"),
    ("PaxosMsg::Commit", "0300000000000000060002000000000000000e"),
    ("PaxosMsg::Heartbeat", "0400000000000000060002000000000000000e"),
    ("PaxosMsg::Prepare", "0500000000000000060002000000000000000c"),
    ("PaxosMsg::Promise", "0600000000000000060002000000000000000c000000000000000b00000002000000000000000c000000000000000600020100020000000400000000000000050101000000000000003300000002676b0002000000000000000d0000000000000006000200"),
    ("PaxosMsg::Nack", "0700000000000000080001"),
    ("PaxosMsg::Repair", "0800000000000000060002000000000000000c00000002000000000000000c000000000000000600020100020000000400000000000000050101000000000000003300000002676b0002000000000000000d0000000000000006000200"),
    ("PaxosMsg::CatchUp", "09000000000000000c000000000000000e"),
    ("PaxosMsg::CatchUpReply", "0a0000000000000006000200000000000000000c000000000000000e00000002000000000000000c000000000000000600020100020000000400000000000000050101000000000000003300000002676b0002000000000000000d0000000000000006000200"),
    ("PaxosMsg::CatchUpReply", "0a0000000000000008000101000000000000000b000000000000000300000001000100000002736e000000027365"),
    ("PaxosMsg::ReadProbe", "0d0000000000000005"),
    ("PaxosMsg::ReadMark", "0e0000000000000005000000000000000e"),
    ("PaxosMsg::PreVote", "0f00000000000000060002"),
    ("PaxosMsg::PreVoteGrant", "1000000000000000060002"),
    ("MenciusMsg::Propose", "000000000000000007000000020001000000070000000000000009000000000002706b00020000000400000000000000050101000000000000003300000002676b0001"),
    ("MenciusMsg::AcceptAck", "010000000000000007000000000000000a"),
    ("MenciusMsg::CatchUp", "020000000000000004000000000000000a"),
    ("MenciusMsg::CatchUpReply", "03000000000000000004000000000000000a0000000100000000000000070001000000070000000000000009000000000002706b"),
    ("MenciusMsg::CatchUpReply", "0301000000000000000b000000000000000300000001000100000002736e000000027365"),
    ("MenciusMsg::ReadProbe", "060000000000000005"),
    ("MenciusMsg::ReadMark", "070000000000000005000000000000000900000003000000000000000900000000000000080000000000000007"),
    ("SynodMsg::Prepare", "0000000000000000060002"),
    ("SynodMsg::Promise", "01000000000000000600020100000000000000080001000000020001000200000000000001020001000000010000000000000102000100010001000000070000000000000009000000000002706b"),
    ("SynodMsg::Propose", "0200000000000000060002000000020001000200000000000001020001000000010000000000000102000100010001000000070000000000000009000000000002706b"),
    ("SynodMsg::Accept", "0300000000000000060002"),
    ("SynodMsg::Nack", "040000000000000006000200000000000000080001"),
    ("SynodMsg::Decided", "05000000020001000200000000000001020001000000010000000000000102000100010001000000070000000000000009000000000002706b"),
    ("LoggedCmd", "0000000000000102000100010001000000070000000000000009000000000002706b"),
    ("Decision", "000000020001000200000000000001020001000000010000000000000102000100010001000000070000000000000009000000000002706b"),
    ("SuffixEntry", "000000000000000c000000000000000600020100020000000400000000000000050101000000000000003300000002676b0002"),
    ("Checkpoint", "000000000000000b000000000000000300000001000100000002736e000000027365"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Round trips cannot see a tag renumbered, or two fields swapped, in
/// both the encoder and the decoder; pinned bytes can.
#[test]
fn encodings_match_the_golden_vectors() {
    let got: Vec<(String, String)> = golden_encodings()
        .into_iter()
        .map(|(label, bytes)| (label, hex(&bytes)))
        .collect();
    let want: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|&(label, bytes)| (label.to_owned(), bytes.to_owned()))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(label, bytes)| format!("    (\"{label}\", \"{bytes}\"),\n"))
            .collect();
        for ((gl, gb), (wl, wb)) in got.iter().zip(&want) {
            assert_eq!(
                (gl, gb),
                (wl, wb),
                "first differing vector; the encoder's table:\n{table}"
            );
        }
        panic!(
            "{} vectors encoded, {} pinned; the encoder's table:\n{table}",
            got.len(),
            want.len()
        );
    }
}

// -----------------------------------------------------------------
// Unknown tags and frame headers
// -----------------------------------------------------------------

/// Every byte that no row of `M`'s table names is refused as `BadTag`
/// under `M`'s name.
fn assert_rejects_unknown_tags<M>(ty: &str, tags: &[u8])
where
    M: WireDecode + std::fmt::Debug,
{
    for tag in (0..=u8::MAX).filter(|t| !tags.contains(t)) {
        match decode_payload::<M>(Bytes::from(vec![tag])) {
            Err(WireError::BadTag { ty: got, tag: t }) if got == ty && t == tag => {}
            other => panic!("{ty} tag {tag}: expected BadTag, got {other:?}"),
        }
    }
}

#[test]
fn unknown_variant_tags_are_rejected() {
    assert_rejects_unknown_tags::<RsmMsg>("RsmMsg", RsmMsg::TAGS);
    assert_rejects_unknown_tags::<PaxosMsg>("PaxosMsg", PaxosMsg::TAGS);
    assert_rejects_unknown_tags::<MenciusMsg>("MenciusMsg", MenciusMsg::TAGS);
    assert_rejects_unknown_tags::<SynodMsg<Decision>>("SynodMsg", SynodMsg::<Decision>::TAGS);
}

/// The distinct tags `msgs` encode under, ascending.
fn encoded_tags<M: WireEncode>(msgs: &[M]) -> Vec<u8> {
    let tags: std::collections::BTreeSet<u8> = msgs.iter().map(|m| encode_payload(m)[0]).collect();
    tags.into_iter().collect()
}

fn sorted(tags: &[u8]) -> Vec<u8> {
    let mut tags = tags.to_vec();
    tags.sort_unstable();
    tags
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The generators build every row of every table: a row added
    /// without a generator case fails here, not silently untested.
    #[test]
    fn generators_cover_every_tag(
        rsm in arb_rsm_all(),
        paxos in arb_paxos_all(),
        mencius in arb_mencius_all(),
        synod in arb_synod_all(),
    ) {
        prop_assert_eq!(encoded_tags(&rsm), sorted(RsmMsg::TAGS));
        prop_assert_eq!(encoded_tags(&paxos), sorted(PaxosMsg::TAGS));
        prop_assert_eq!(encoded_tags(&mencius), sorted(MenciusMsg::TAGS));
        prop_assert_eq!(encoded_tags(&synod), sorted(SynodMsg::<Decision>::TAGS));
    }
}

#[test]
fn frame_header_roundtrips_and_rejects_corruption() {
    let payload = b"frame payload".as_slice();
    let header = FrameHeader::for_payload(ReplicaId::new(1), ReplicaId::new(2), 42, payload);
    let bytes = header.encode();
    assert_eq!(bytes.len(), MSG_HEADER_BYTES);
    assert_eq!(FrameHeader::decode(&bytes).unwrap(), header);
    assert!(header.verify_payload(payload).is_ok());

    // Corrupt magic.
    let mut bad = bytes;
    bad[0] ^= 0xFF;
    assert!(matches!(
        FrameHeader::decode(&bad),
        Err(WireError::BadMagic(_))
    ));

    // Corrupt version.
    let mut bad = bytes;
    bad[5] ^= 0xFF;
    assert!(matches!(
        FrameHeader::decode(&bad),
        Err(WireError::BadVersion(_))
    ));

    // A flipped payload byte fails the checksum.
    let mut flipped = payload.to_vec();
    flipped[3] ^= 0x01;
    assert!(matches!(
        header.verify_payload(&flipped),
        Err(WireError::BadChecksum)
    ));
    // So does a short payload under the announced length.
    assert!(matches!(
        header.verify_payload(&payload[..payload.len() - 1]),
        Err(WireError::BadChecksum)
    ));
}
