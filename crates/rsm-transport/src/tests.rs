use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use rsm_core::id::ReplicaId;
use rsm_core::wire::{
    encode_payload, FrameHeader, WireDecode, WireEncode, WireError, WireMsg, WireReader,
    MAX_FRAME_PAYLOAD, MSG_HEADER_BYTES,
};

use crate::link::LINK_QUEUE_CAP;
use crate::{Endpoint, Hub, Listener, MsgSink, TransportMetrics};

thread_local! {
    /// Encodes performed on this thread — a hub encodes on its caller's
    /// thread, so a test counts its own and nobody else's.
    static ENCODES: Cell<usize> = const { Cell::new(0) };
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TestMsg {
    tag: u64,
    body: Bytes,
}

impl TestMsg {
    fn new(tag: u64, body: &[u8]) -> TestMsg {
        TestMsg {
            tag,
            body: Bytes::copy_from_slice(body),
        }
    }
}

impl WireEncode for TestMsg {
    fn encode(&self, buf: &mut BytesMut) {
        ENCODES.with(|n| n.set(n.get() + 1));
        self.tag.encode(buf);
        self.body.encode(buf);
    }
}

/// The one tag the listener's decoder refuses.
const REFUSED_TAG: u64 = 1_000_000;

impl WireDecode for TestMsg {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let tag = u64::decode(r)?;
        if tag == REFUSED_TAG {
            return Err(WireError::Inconsistent("the refused test tag"));
        }
        Ok(TestMsg {
            tag,
            body: Bytes::decode(r)?,
        })
    }
}

impl WireMsg for TestMsg {
    fn shares_encoding(&self, prev: &Self) -> bool {
        self == prev
    }
}

fn deliver_into(
    tx: mpsc::Sender<(ReplicaId, TestMsg)>,
) -> impl Fn(ReplicaId, TestMsg) + Send + Sync {
    move |from, msg| {
        let _ = tx.send((from, msg));
    }
}

/// A TCP listener with its inbound counters and what it delivers.
fn counted_tcp_listener() -> (
    Listener,
    TransportMetrics,
    mpsc::Receiver<(ReplicaId, TestMsg)>,
) {
    let (tx, rx) = mpsc::channel();
    let metrics = TransportMetrics::default();
    let listener =
        Listener::bind_with_metrics(&Endpoint::tcp_loopback(), metrics.clone(), deliver_into(tx))
            .expect("bind");
    (listener, metrics, rx)
}

fn tcp_addr(listener: &Listener) -> SocketAddr {
    match listener.endpoint() {
        Endpoint::Tcp(addr) => *addr,
        Endpoint::Uds(_) => unreachable!("bound on TCP"),
    }
}

fn round_trip_over(endpoint: Endpoint) {
    let (tx, rx) = mpsc::channel();
    let listener = Listener::bind(&endpoint, deliver_into(tx)).expect("bind");
    let r0 = ReplicaId::new(0);
    let r1 = ReplicaId::new(1);
    let mut hub: Hub<TestMsg> = Hub::new(r0, Box::new(|_| panic!("no self-sends here")));
    hub.add_peer(r1, listener.endpoint().clone(), Duration::ZERO);

    for i in 0..100u64 {
        hub.send_msg(r1, TestMsg::new(i, format!("payload-{i}").as_bytes()));
    }
    for i in 0..100u64 {
        let (from, msg) = rx.recv_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(from, r0);
        assert_eq!(msg.tag, i, "frames must arrive in FIFO order");
        assert_eq!(&msg.body[..], format!("payload-{i}").as_bytes());
    }
    drop(hub);
}

#[test]
fn tcp_frames_round_trip_in_order() {
    round_trip_over(Endpoint::tcp_loopback());
}

#[test]
fn uds_frames_round_trip_in_order() {
    round_trip_over(Endpoint::uds_temp("roundtrip", 1));
}

#[test]
fn self_sends_bypass_the_socket() {
    let (tx, rx) = mpsc::channel();
    let r0 = ReplicaId::new(0);
    let mut hub: Hub<TestMsg> = Hub::new(
        r0,
        Box::new(move |msg| {
            let _ = tx.send(msg);
        }),
    );
    let before = ENCODES.with(Cell::get);
    hub.send_msg(r0, TestMsg::new(7, b"loop"));
    assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap().tag, 7);
    assert_eq!(
        ENCODES.with(Cell::get),
        before,
        "a self-send must not encode"
    );
}

#[test]
fn broadcast_encodes_the_payload_once() {
    let (tx1, rx1) = mpsc::channel();
    let (tx2, rx2) = mpsc::channel();
    let l1 = Listener::bind(&Endpoint::tcp_loopback(), deliver_into(tx1)).expect("bind");
    let l2 = Listener::bind(&Endpoint::tcp_loopback(), deliver_into(tx2)).expect("bind");
    let r0 = ReplicaId::new(0);
    let mut hub: Hub<TestMsg> = Hub::new(r0, Box::new(|_| ()));
    hub.add_peer(ReplicaId::new(1), l1.endpoint().clone(), Duration::ZERO);
    hub.add_peer(ReplicaId::new(2), l2.endpoint().clone(), Duration::ZERO);

    let msg = TestMsg::new(42, &[9u8; 1024]);
    let before = ENCODES.with(Cell::get);
    hub.send_msg(ReplicaId::new(1), msg.clone());
    hub.send_msg(ReplicaId::new(2), msg.clone());
    assert_eq!(
        ENCODES.with(Cell::get) - before,
        1,
        "the second per-peer send must reuse the cached encoding"
    );
    assert_eq!(rx1.recv_timeout(Duration::from_secs(5)).unwrap().1, msg);
    assert_eq!(rx2.recv_timeout(Duration::from_secs(5)).unwrap().1, msg);
}

#[test]
fn a_held_frame_is_written_at_its_due_instant() {
    // Frames go out one at a time over a 250 µs link, each after the
    // last arrived, so the writer holds every frame alone. `sent` is
    // taken just before the hub stamps the frame, so `sent + DELAY` is at
    // most its due instant; arrival is stamped by the reader thread.
    const DELAY: Duration = Duration::from_micros(250);
    const FRAMES: usize = 200;
    let (tx, rx) = mpsc::channel();
    let listener = Listener::bind(&Endpoint::tcp_loopback(), move |_, msg: TestMsg| {
        let _ = tx.send((msg.tag, Instant::now()));
    })
    .expect("bind");
    let r1 = ReplicaId::new(1);
    let mut hub: Hub<TestMsg> = Hub::new(ReplicaId::new(0), Box::new(|_| ()));
    hub.add_peer(r1, listener.endpoint().clone(), DELAY);
    let mut late: Vec<Duration> = (0..FRAMES as u64)
        .map(|tag| {
            let sent = Instant::now();
            hub.send_msg(r1, TestMsg::new(tag, b"held"));
            let (got, at) = rx.recv_timeout(Duration::from_secs(5)).expect("frame");
            assert_eq!(got, tag, "FIFO");
            let due = sent + DELAY;
            assert!(at >= due, "frame {tag} arrived {:?} early", due - at);
            at - due
        })
        .collect();
    drop(hub);
    late.sort();
    // The arrival includes the loopback write, the read and the decode,
    // ~45 µs at the median; a plain timed sleep adds ~70 µs to that.
    let median = late[FRAMES / 2];
    assert!(
        median < Duration::from_micros(100),
        "median lateness {median:?}, p90 {:?}",
        late[FRAMES * 9 / 10]
    );
}

#[test]
fn garbage_connections_do_not_poison_the_listener() {
    let (tx, rx) = mpsc::channel();
    let listener = Listener::bind(&Endpoint::tcp_loopback(), deliver_into(tx)).expect("bind");
    let addr = tcp_addr(&listener);
    // A connection that speaks nonsense: the reader must drop it at the
    // bad magic and keep serving other connections.
    let mut garbage = TcpStream::connect(addr).unwrap();
    garbage.write_all(&[0xAA; 64]).unwrap();
    drop(garbage);

    let r0 = ReplicaId::new(0);
    let mut hub: Hub<TestMsg> = Hub::new(r0, Box::new(|_| ()));
    hub.add_peer(
        ReplicaId::new(1),
        listener.endpoint().clone(),
        Duration::ZERO,
    );
    hub.send_msg(ReplicaId::new(1), TestMsg::new(3, b"still-alive"));
    let (_, msg) = rx.recv_timeout(Duration::from_secs(5)).expect("frame");
    assert_eq!(msg.tag, 3);
}

#[test]
fn a_rejected_frame_closes_the_connection_and_is_counted() {
    let (listener, metrics, rx) = counted_tcp_listener();
    let addr = tcp_addr(&listener);
    let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
    let msg = TestMsg::new(1, b"frame");

    // A well-formed header over a payload with one bit flipped in flight.
    let mut corrupt = raw_frame(0, 1, &TestMsg::new(1, &[7u8; 256]));
    corrupt[MSG_HEADER_BYTES + 100] ^= 0x01;
    // Each stream is refused at its last frame, after delivering the
    // given number of frames before it.
    let cases = [
        ("a corrupt payload", corrupt, 0),
        (
            "seq 1 then 3",
            [raw_frame(2, 1, &msg), raw_frame(2, 3, &msg)].concat(),
            1,
        ),
        ("a first frame that is not seq 1", raw_frame(3, 2, &msg), 0),
        (
            "a second connection from sender 2",
            raw_frame(2, 1, &msg),
            0,
        ),
    ];
    for (rejected, (case, stream, delivered)) in (1..).zip(cases) {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&stream).unwrap();
        // The reader must close the socket, not just stop reading it: the
        // sender sees EOF instead of a stream that silently fills up.
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(
            raw.read(&mut [0u8; 1])
                .unwrap_or_else(|e| panic!("{case}: connection left open ({e})")),
            0,
            "{case}"
        );
        assert_eq!(metrics.frames_rejected.get(), rejected, "{case}");
        for _ in 0..delivered {
            rx.recv_timeout(Duration::from_secs(5)).expect("frame");
        }
        assert!(
            rx.try_recv().is_err(),
            "{case}: a refused frame was delivered"
        );
    }

    // A link from a sender no connection has delivered from still works.
    let mut hub: Hub<TestMsg> = Hub::new(r0, Box::new(|_| ()));
    hub.add_peer(r1, listener.endpoint().clone(), Duration::ZERO);
    hub.send_msg(r1, TestMsg::new(2, b"after"));
    let (_, msg) = rx.recv_timeout(Duration::from_secs(5)).expect("frame");
    assert_eq!(msg.tag, 2);
    assert_eq!(metrics.frames_rejected.get(), 4);
}

/// Header and payload of `msg` as frame `seq` on the `from → 1` link.
fn raw_frame(from: u16, seq: u64, msg: &TestMsg) -> Vec<u8> {
    let payload = encode_payload(msg);
    let header = FrameHeader::for_payload(ReplicaId::new(from), ReplicaId::new(1), seq, &payload);
    [&header.encode()[..], &payload[..]].concat()
}

fn patterned_64k(tag: u64) -> TestMsg {
    let body: Vec<u8> = (0..64 << 10).map(|i| (i % 251) as u8).collect();
    TestMsg::new(tag, &body)
}

/// Dials until the listener holds no finished reader: at most `live`
/// connections plus the probe dial itself.
fn readers_drain_to(listener: &Listener, live: usize) -> bool {
    let addr = tcp_addr(listener);
    reached(|| {
        drop(TcpStream::connect(addr).unwrap());
        std::thread::sleep(Duration::from_millis(5));
        listener.held() <= live + 1
    })
}

#[test]
fn a_frame_arriving_in_pieces_is_delivered_once_and_intact() {
    let (listener, metrics, rx) = counted_tcp_listener();
    let msg = patterned_64k(1);
    let frame = raw_frame(0, 1, &msg);
    let mut raw = TcpStream::connect(tcp_addr(&listener)).unwrap();
    raw.set_nodelay(true).unwrap();
    // One byte of the header, then the rest of it with the head of the
    // payload, then the tail: the pauses only make it likely that the
    // reader sees each piece as a short read of its own.
    for piece in [&frame[..1], &frame[1..1001], &frame[1001..]] {
        raw.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let (from, got) = rx.recv_timeout(Duration::from_secs(5)).expect("frame");
    assert_eq!(from, ReplicaId::new(0));
    assert_eq!(got, msg);
    // The stream is still in step: the next frame on it is the next
    // delivery, and there is no other.
    raw.write_all(&raw_frame(0, 2, &TestMsg::new(2, b"next")))
        .unwrap();
    let (_, next) = rx.recv_timeout(Duration::from_secs(5)).expect("frame");
    assert_eq!(next.tag, 2);
    assert!(rx.try_recv().is_err(), "a frame was delivered twice");
    assert_eq!(metrics.frames_recv.get(), 2);
    assert_eq!(metrics.frames_rejected.get(), 0);
}

#[test]
fn a_connection_closed_mid_payload_is_torn_not_malformed() {
    let (listener, metrics, rx) = counted_tcp_listener();
    let msg = patterned_64k(1);
    let frame = raw_frame(0, 1, &msg);
    let mut torn = TcpStream::connect(tcp_addr(&listener)).unwrap();
    torn.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(torn);
    assert!(
        readers_drain_to(&listener, 0),
        "the torn reader never ended"
    );
    assert!(rx.try_recv().is_err(), "half a frame was delivered");
    assert_eq!(metrics.frames_rejected.get(), 0, "torn, not malformed");

    // A torn connection that delivered nothing claims no sender: a new
    // connection from the same peer, at `seq` 1 again, is its link.
    let mut fresh = TcpStream::connect(tcp_addr(&listener)).unwrap();
    fresh.write_all(&frame).unwrap();
    let (_, got) = rx.recv_timeout(Duration::from_secs(5)).expect("frame");
    assert_eq!(got, msg);
    assert_eq!(metrics.frames_rejected.get(), 0);
}

#[test]
fn a_header_promising_far_more_than_arrives_ends_promptly() {
    let (listener, metrics, rx) = counted_tcp_listener();
    // The largest payload a header may announce, and ten bytes of it.
    let header = FrameHeader {
        from: ReplicaId::new(0),
        to: ReplicaId::new(1),
        len: MAX_FRAME_PAYLOAD as u32,
        seq: 1,
        checksum: 0,
    };
    let started = Instant::now();
    let mut raw = TcpStream::connect(tcp_addr(&listener)).unwrap();
    raw.write_all(&header.encode()).unwrap();
    raw.write_all(&[7u8; 10]).unwrap();
    drop(raw);
    assert!(readers_drain_to(&listener, 0), "the reader never ended");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a reader took {:?} to give up on a payload that was never coming",
        started.elapsed()
    );
    assert!(rx.try_recv().is_err());
    assert_eq!(metrics.frames_rejected.get(), 0, "torn, not malformed");
}

#[test]
fn listener_stop_is_idempotent_and_unblocks() {
    let (tx, _rx) = mpsc::channel();
    let mut listener =
        Listener::bind(&Endpoint::uds_temp("stop", 0), deliver_into(tx)).expect("bind");
    let r0 = ReplicaId::new(0);
    let mut hub: Hub<TestMsg> = Hub::new(r0, Box::new(|_| ()));
    hub.add_peer(
        ReplicaId::new(1),
        listener.endpoint().clone(),
        Duration::ZERO,
    );
    hub.send_msg(ReplicaId::new(1), TestMsg::new(1, b"x"));
    // Give the writer a moment to establish the connection so stop()
    // exercises the live-reader shutdown path too.
    std::thread::sleep(Duration::from_millis(50));
    listener.stop();
    listener.stop();
    drop(hub);
}

/// Polls `cond` until it holds, or gives up: a state that is never
/// reached is the caller's failed assertion, not a hang.
fn reached(cond: impl Fn() -> bool) -> bool {
    let watchdog = Instant::now() + Duration::from_secs(60);
    while !cond() {
        if Instant::now() > watchdog {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

#[test]
fn a_stalled_peer_blocks_the_sender_at_the_link_bound_and_loses_nothing() {
    const FRAMES: u64 = 64 * 1024;
    // A receiver that takes nothing until the gate opens: its socket
    // buffers fill, the writer blocks in `write`, the link queue fills,
    // and the sending thread must stall — never drop, never run ahead.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let (tx, rx) = mpsc::channel();
    let listener = {
        let gate = Arc::clone(&gate);
        Listener::bind(&Endpoint::tcp_loopback(), move |from, msg: TestMsg| {
            let (open, opened) = &*gate;
            drop(opened.wait_while(open.lock().unwrap(), |open| !*open));
            let _ = tx.send((from, msg));
        })
        .expect("bind")
    };
    let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
    let mut hub: Hub<TestMsg> = Hub::new(r0, Box::new(|_| ()));
    hub.add_peer(r1, listener.endpoint().clone(), Duration::ZERO);
    let depth = hub.depth_gauges().remove(0).1;
    let sent = Arc::new(AtomicUsize::new(0));
    let sender = {
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            for tag in 0..FRAMES {
                hub.send_msg(r1, TestMsg::new(tag, &[tag as u8; 1024]));
                sent.fetch_add(1, Ordering::SeqCst);
            }
            hub
        })
    };

    // Stalled: the queue holds its bound, the blocked send one more —
    // and stays there. A full queue alone is not a stall: while the
    // kernel still takes bytes the writer empties the queue a batch at a
    // time and a fast sender refills it in between.
    let full = LINK_QUEUE_CAP as i64 + 1;
    let seen = Cell::new((0, 0, 0));
    let stalled = reached(|| {
        if depth.get() < full {
            return false;
        }
        let stalled_at = sent.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(100));
        seen.set((stalled_at, depth.get(), sent.load(Ordering::SeqCst)));
        stalled_at == seen.get().2
    });
    let (stalled_at, depth_later, sent_later) = seen.get();
    // Judge with the gate open: a failed assertion must not leave the
    // reader parked in `deliver` for the listener's drop to wait on.
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    assert!(
        stalled,
        "no send ever waited 100 ms: depth {depth_later}, {sent_later} sent"
    );
    assert_eq!(depth_later, full, "the queue grew past its bound");
    assert!((stalled_at as u64) < FRAMES);

    for tag in 0..FRAMES {
        let (from, msg) = rx.recv_timeout(Duration::from_secs(60)).expect("frame");
        assert_eq!((from, msg.tag), (r0, tag), "exactly once, in order");
    }
    let hub = sender.join().expect("sender");
    assert_eq!(depth.get(), 0, "every frame left the queue");
    assert!(rx.try_recv().is_err(), "a frame arrived twice");
    drop(hub);
}

#[test]
fn dropping_a_hub_does_not_wait_for_an_unreachable_peer() {
    // Nobody listens here, so the link is down from its dial on — with
    // frames queued and, after the drop, no peer to write them to.
    let nowhere = Endpoint::uds_temp("nowhere", 0);
    let mut hub: Hub<TestMsg> = Hub::new(ReplicaId::new(0), Box::new(|_| ()));
    hub.add_peer(ReplicaId::new(1), nowhere, Duration::ZERO);
    for tag in 0..100 {
        hub.send_msg(ReplicaId::new(1), TestMsg::new(tag, b"lost at teardown"));
    }
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        drop(hub);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("hub drop wedged behind an unreachable peer");
}

#[test]
fn finished_connections_cost_the_listener_nothing() {
    let (tx, rx) = mpsc::channel();
    let mut listener = Listener::bind(&Endpoint::tcp_loopback(), deliver_into(tx)).expect("bind");
    let addr = tcp_addr(&listener);
    // One connection that stays up for the whole test…
    let r0 = ReplicaId::new(0);
    let mut hub: Hub<TestMsg> = Hub::new(r0, Box::new(|_| ()));
    hub.add_peer(
        ReplicaId::new(1),
        listener.endpoint().clone(),
        Duration::ZERO,
    );
    hub.send_msg(ReplicaId::new(1), TestMsg::new(1, b"live"));
    rx.recv_timeout(Duration::from_secs(5)).expect("frame");
    // …and 200 that come and go, as probes or a port scanner would
    // produce them.
    for _ in 0..200 {
        drop(TcpStream::connect(addr).unwrap());
    }
    // Readers notice EOF on their own time, and a finished reader is let
    // go of at the next accept: dial until the listener holds the live
    // connection plus, at most, that last dial.
    assert!(
        readers_drain_to(&listener, 1),
        "{} readers held for one connection",
        listener.held()
    );
    // The live reader is still parked in `read`; stop must unblock it.
    listener.stop();
    assert_eq!(listener.held(), 0);
    drop(hub);
}

/// A TCP relay to `target`. It forwards every connection faithfully
/// until `cut` is set; then the connection it is serving reads one more
/// chunk, forwards none of it and closes both sides: a link torn with
/// bytes in flight. Later dials are relayed faithfully again. Its
/// threads end with the test process.
fn lossy_relay(target: SocketAddr, cut: Arc<AtomicBool>) -> Endpoint {
    let relay = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = relay.local_addr().unwrap();
    std::thread::spawn(move || {
        for from in relay.incoming() {
            let (Ok(mut from), Ok(mut to)) = (from, TcpStream::connect(target)) else {
                return;
            };
            let cut = Arc::clone(&cut);
            std::thread::spawn(move || {
                let mut chunk = vec![0u8; 64 << 10];
                loop {
                    let n = from.read(&mut chunk).unwrap_or(0);
                    // Returning drops, and so closes, both streams.
                    if n == 0
                        || cut.swap(false, Ordering::SeqCst)
                        || to.write_all(&chunk[..n]).is_err()
                    {
                        return;
                    }
                }
            });
        }
    });
    Endpoint::Tcp(addr)
}

/// `tags` as runs of consecutive values, e.g. `0..=9 30..=59`.
fn runs(tags: &[u64]) -> String {
    let runs: Vec<String> = tags
        .chunk_by(|a, b| a + 1 == *b)
        .map(|run| format!("{}..={}", run[0], run[run.len() - 1]))
        .collect();
    runs.join(" ")
}

/// What a link must still guarantee after a fault on it: `hub`'s link to
/// replica 1 has carried the frames tagged `sent`, the first ten of which
/// arrived before the fault. Five waves of ten more frames, 100 ms apart,
/// let the writer meet the fault; then come `2 × LINK_QUEUE_CAP` more.
/// - Every send returns: no sender blocks on a dead link.
/// - The link's queue drains to 0.
/// - What was delivered is a gap-free prefix of what was sent.
/// - The hub counted the link down, once.
fn assert_down_and_gap_free(
    mut hub: Hub<TestMsg>,
    metrics: &TransportMetrics,
    rx: &mpsc::Receiver<(ReplicaId, TestMsg)>,
    sent: Range<u64>,
) {
    let r1 = ReplicaId::new(1);
    let depth = hub.depth_gauges().remove(0).1;
    let end = sent.end + 50 + 2 * LINK_QUEUE_CAP as u64;
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        for tag in sent.end..end {
            if tag < sent.end + 50 && (tag - sent.end).is_multiple_of(10) {
                std::thread::sleep(Duration::from_millis(100));
            }
            hub.send_msg(r1, TestMsg::new(tag, b"after"));
        }
        let _ = done_tx.send(hub);
    });
    let hub = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a send blocked on a dead link");
    assert!(reached(|| depth.get() == 0), "{} frames stuck", depth.get());
    let delivered: Vec<u64> =
        std::iter::from_fn(|| rx.recv_timeout(Duration::from_millis(500)).ok())
            .map(|(_, msg)| msg.tag)
            .collect();
    assert!(
        delivered.len() >= 10
            && delivered
                .iter()
                .copied()
                .eq(sent.start..sent.start + delivered.len() as u64),
        "of {}..{end} delivered {}: not a gap-free prefix",
        sent.start,
        runs(&delivered)
    );
    assert_eq!(metrics.links_down.get(), 1);
    drop(hub);
}

/// A hub whose link to replica 1 dials `endpoint`, counting into `metrics`.
fn counted_hub(endpoint: Endpoint, metrics: &TransportMetrics) -> Hub<TestMsg> {
    let mut hub: Hub<TestMsg> = Hub::new(ReplicaId::new(0), Box::new(|_| ()));
    hub.set_metrics(metrics.clone());
    hub.add_peer(ReplicaId::new(1), endpoint, Duration::ZERO);
    hub
}

#[test]
fn a_link_torn_with_frames_in_flight_stays_down_instead_of_skipping_them() {
    let (listener, inbound, rx) = counted_tcp_listener();
    let cut = Arc::new(AtomicBool::new(false));
    let metrics = TransportMetrics::default();
    let mut hub = counted_hub(lossy_relay(tcp_addr(&listener), Arc::clone(&cut)), &metrics);
    for tag in 0..10 {
        hub.send_msg(ReplicaId::new(1), TestMsg::new(tag, b"before"));
    }
    assert!(reached(|| inbound.frames_recv.get() == 10));
    cut.store(true, Ordering::SeqCst);
    assert_down_and_gap_free(hub, &metrics, &rx, 0..10);
}

#[test]
fn a_refused_frame_takes_its_link_down_instead_of_being_skipped() {
    let (listener, inbound, rx) = counted_tcp_listener();
    let metrics = TransportMetrics::default();
    let mut hub = counted_hub(listener.endpoint().clone(), &metrics);
    let first = REFUSED_TAG - 10;
    for tag in first..REFUSED_TAG {
        hub.send_msg(ReplicaId::new(1), TestMsg::new(tag, b"before"));
    }
    assert!(reached(|| inbound.frames_recv.get() == 10));
    hub.send_msg(ReplicaId::new(1), TestMsg::new(REFUSED_TAG, b"refused"));
    assert_down_and_gap_free(hub, &metrics, &rx, first..REFUSED_TAG + 1);
    assert_eq!(inbound.frames_rejected.get(), 1);
}
