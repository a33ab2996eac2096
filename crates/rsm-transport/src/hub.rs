//! A node's outbound fan-out: per-peer links plus the encode-once cache.

use std::time::{Duration, Instant};

use bytes::Bytes;
use rsm_core::id::ReplicaId;
use rsm_core::wire::{checksum, encode_payload, FrameHeader, WireMsg, MSG_HEADER_BYTES};
use rsm_obs::{Counter, Gauge, Registry};

use crate::endpoint::Endpoint;
use crate::link::{OutFrame, PeerLink};

/// Object-safe message sink: what the runtime's node harness holds so it
/// can stay generic over the protocol without a `WireMsg` bound. The
/// socket transport's implementation is [`Hub`].
pub trait MsgSink<M>: Send {
    /// Sends `msg` to replica `to`. Self-sends are delivered locally
    /// without touching a socket or encoding anything.
    fn send_msg(&mut self, to: ReplicaId, msg: M);
}

/// Shared counters for one node's transport activity. The cells are
/// plain `rsm-obs` counters: created detached by `Default` (they still
/// count, just unobserved) or adopted into a metrics [`Registry`] via
/// [`TransportMetrics::register`], where they appear as
/// `r<node>.transport.*`. Cloning shares the cells.
#[derive(Clone, Debug, Default)]
pub struct TransportMetrics {
    /// Frames handed to peer links (self-sends excluded).
    pub frames_sent: Counter,
    /// Header + payload bytes handed to peer links.
    pub bytes_sent: Counter,
    /// Verified frames delivered by the listener.
    pub frames_recv: Counter,
    /// Header + payload bytes of verified delivered frames.
    pub bytes_recv: Counter,
    /// Peer links that went down — a failed dial or write — and stay
    /// down, dropping every frame sent on them afterwards.
    pub links_down: Counter,
    /// Frames the listener refused — a bad header, a checksum mismatch,
    /// a `seq` out of order, a second link from one sender or an
    /// undecodable payload; each one also closed its connection.
    pub frames_rejected: Counter,
}

impl TransportMetrics {
    /// Counters registered under `r<node>.transport.*` in `registry`.
    pub fn register(registry: &Registry, node: u16) -> TransportMetrics {
        let name = |metric: &str| format!("r{node}.transport.{metric}");
        TransportMetrics {
            frames_sent: registry.counter(&name("frames_sent")),
            bytes_sent: registry.counter(&name("bytes_sent")),
            frames_recv: registry.counter(&name("frames_recv")),
            bytes_recv: registry.counter(&name("bytes_recv")),
            links_down: registry.counter(&name("links_down")),
            frames_rejected: registry.counter(&name("frames_rejected")),
        }
    }
}

struct EncodeCache<M> {
    msg: M,
    payload: Bytes,
    checksum: u32,
}

struct Peer {
    link: PeerLink,
    delay: Duration,
    /// Per-link frame sequence, 1, 2, 3, …: the receiver takes any other
    /// as a gap and closes the link.
    seq: u64,
}

/// The outbound half of one replica: a link (a queue and its writer
/// thread) per peer and a one-entry encode cache.
///
/// The cache is what makes broadcasts zero-re-encode: protocols send the
/// same `Arc`-shared batch message to every peer back-to-back, and
/// [`WireMsg::shares_encoding`] recognises the repeat, so the payload is
/// encoded (and checksummed) once and every per-peer frame clones the
/// same `Bytes` buffer. Only the 32-byte header differs per peer.
pub struct Hub<M: WireMsg> {
    from: ReplicaId,
    peers: Vec<Option<Peer>>,
    loopback: Box<dyn FnMut(M) + Send>,
    cache: Option<EncodeCache<M>>,
    metrics: TransportMetrics,
}

impl<M: WireMsg> Hub<M> {
    /// Creates the hub for replica `from`. `loopback` receives self-sends
    /// (typically forwarding into the node's own inbox).
    pub fn new(from: ReplicaId, loopback: Box<dyn FnMut(M) + Send>) -> Hub<M> {
        Hub {
            from,
            peers: Vec::new(),
            loopback,
            cache: None,
            metrics: TransportMetrics::default(),
        }
    }

    /// Replaces the hub's outbound counters (typically with
    /// registry-backed cells from [`TransportMetrics::register`]). Call
    /// **before** [`add_peer`](Hub::add_peer): links spawned earlier keep
    /// the previous `links_down` counter.
    pub fn set_metrics(&mut self, metrics: TransportMetrics) {
        self.metrics = metrics;
    }

    /// Adds the link to peer `to` at `endpoint`. `delay` is the minimum
    /// link latency applied before frames hit the socket (the runtime's
    /// WAN emulation; `Duration::ZERO` for plain loopback).
    pub fn add_peer(&mut self, to: ReplicaId, endpoint: Endpoint, delay: Duration) {
        let idx = to.index();
        if self.peers.len() <= idx {
            self.peers.resize_with(idx + 1, || None);
        }
        self.peers[idx] = Some(Peer {
            link: PeerLink::spawn(endpoint, self.metrics.links_down.clone()),
            delay,
            seq: 0,
        });
    }

    /// The `(peer, depth gauge)` pair of every peer link added so far —
    /// the gauges mirror each link's queued-frame count, kept by the link
    /// at enqueue and dequeue. Grab them before handing the hub to its node
    /// thread; links added later are not covered.
    pub fn depth_gauges(&self) -> Vec<(ReplicaId, Gauge)> {
        self.peers
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                p.as_ref()
                    .map(|p| (ReplicaId::new(i as u16), p.link.depth_gauge()))
            })
            .collect()
    }

    /// Encoded payload + checksum for `msg`, reusing the cached buffer
    /// when `msg` shares its encoding with the previous send.
    fn payload_for(&mut self, msg: &M) -> (Bytes, u32) {
        if let Some(cache) = &self.cache {
            if msg.shares_encoding(&cache.msg) {
                return (cache.payload.clone(), cache.checksum);
            }
        }
        let payload = encode_payload(msg);
        let sum = checksum(&payload);
        self.cache = Some(EncodeCache {
            msg: msg.clone(),
            payload: payload.clone(),
            checksum: sum,
        });
        (payload, sum)
    }
}

impl<M: WireMsg> MsgSink<M> for Hub<M> {
    fn send_msg(&mut self, to: ReplicaId, msg: M) {
        if to == self.from {
            (self.loopback)(msg);
            return;
        }
        let (payload, sum) = self.payload_for(&msg);
        let peer = match self.peers.get_mut(to.index()).and_then(Option::as_mut) {
            Some(p) => p,
            None => return, // Unknown peer: drop, like an unreachable host.
        };
        self.metrics.frames_sent.inc();
        self.metrics
            .bytes_sent
            .add((MSG_HEADER_BYTES + payload.len()) as u64);
        peer.seq += 1;
        let header = FrameHeader {
            from: self.from,
            to,
            len: payload.len() as u32,
            seq: peer.seq,
            checksum: sum,
        }
        .encode();
        peer.link.send(OutFrame {
            header,
            payload,
            due: Instant::now() + peer.delay,
        });
    }
}
