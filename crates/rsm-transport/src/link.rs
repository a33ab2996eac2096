//! Outbound side: one writer thread per peer link.

use std::io::{self, IoSlice, Write};
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use rsm_core::wire::MSG_HEADER_BYTES;
use rsm_obs::{Counter, Gauge};

use crate::endpoint::{Conn, Endpoint};
use crate::hold::sleep_until;

/// An encoded frame queued on a link: pre-built header, shared payload
/// buffer, and the earliest instant it may hit the socket (the runtime's
/// WAN emulation: `due = enqueue + one_way(from, to) × scale`). The
/// writer holds a frame by the hold rule: never written before `due`,
/// written within [`EARLY`](crate::EARLY) of it.
pub(crate) struct OutFrame {
    pub(crate) header: [u8; MSG_HEADER_BYTES],
    pub(crate) payload: Bytes,
    pub(crate) due: Instant,
}

/// Most frames coalesced into one vectored write; two iovecs per frame
/// keeps the batch far under any platform's `IOV_MAX`.
const MAX_COALESCE: usize = 64;

/// Outbound queue capacity per link. While the link is up, sends block
/// (never drop) when the peer's socket falls this far behind —
/// backpressure propagates to the protocol thread, which is the correct
/// failure mode for gap-free FIFO links. A link that is down takes and
/// drops every frame, so a dead peer never blocks a sender.
pub(crate) const LINK_QUEUE_CAP: usize = 4096;

/// One direction of a replica pair over one connection, for life: a
/// bounded queue drained by a dedicated writer thread that dials the peer
/// once, as soon as it is spawned, and coalesces queued due frames into a
/// single vectored write. A failed dial or write takes the link down for
/// good: the connection is closed, `links_down` is bumped, and every
/// frame queued then or later is dropped. The peer has therefore received
/// a gap-free prefix of what was sent — never a frame past a lost one.
pub(crate) struct PeerLink {
    tx: Option<Sender<OutFrame>>,
    /// Frames handed to [`send`](PeerLink::send) that the writer has not
    /// taken yet: the queue's length plus the frame a blocked send holds.
    /// Lock-free, so admission control and the metrics registry read it
    /// without touching the queue.
    depth: Gauge,
    handle: Option<JoinHandle<()>>,
}

impl PeerLink {
    /// Spawns the writer thread for the link to `endpoint`; `links_down`
    /// is bumped once if the link goes down.
    pub(crate) fn spawn(endpoint: Endpoint, links_down: Counter) -> PeerLink {
        let (tx, rx) = bounded(LINK_QUEUE_CAP);
        let depth = Gauge::default();
        let handle = {
            let depth = depth.clone();
            std::thread::Builder::new()
                .name("rsm-writer".into())
                .spawn(move || writer_loop(&endpoint, &rx, &depth, &links_down))
                .expect("spawn link writer thread")
        };
        PeerLink {
            tx: Some(tx),
            depth,
            handle: Some(handle),
        }
    }

    /// A handle on this link's queued-frame count.
    pub(crate) fn depth_gauge(&self) -> Gauge {
        self.depth.clone()
    }

    /// Enqueues a frame, blocking while the link queue is full.
    pub(crate) fn send(&self, frame: OutFrame) {
        if let Some(tx) = &self.tx {
            // Counted before the send, so the writer's decrement can
            // never come first and show a negative depth.
            self.depth.add(1);
            // Err only if the writer thread died: it takes frames, up or
            // down, until this sender is dropped.
            let _ = tx.send(frame);
        }
    }
}

impl Drop for PeerLink {
    fn drop(&mut self) {
        // Dropping the sender lets the writer drain its queue and exit.
        self.tx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn writer_loop(endpoint: &Endpoint, rx: &Receiver<OutFrame>, depth: &Gauge, links_down: &Counter) {
    // Dialed before waiting for a frame, so the first one does not pay
    // the dial. Every caller binds its listeners before adding peers.
    let up = Conn::connect(endpoint).and_then(|mut conn| write_frames(&mut conn, rx, depth));
    if up.is_err() {
        // Down for good, and the connection (if any) closed with it. No
        // redial: this side cannot know which of the frames it wrote the
        // peer took, and delivering past a lost one breaks FIFO. Take
        // and drop frames until the hub goes away, so no sender blocks
        // on a dead peer and the depth gauge stays exact.
        links_down.inc();
        while rx.recv().is_ok() {
            depth.add(-1);
        }
    }
}

/// Writes queued frames, in order and honouring due times, until the hub
/// is dropped and the queue drained (`Ok`) or a write fails (`Err`).
fn write_frames(conn: &mut Conn, rx: &Receiver<OutFrame>, depth: &Gauge) -> io::Result<()> {
    let mut pending: Vec<OutFrame> = Vec::with_capacity(MAX_COALESCE);
    let mut carry: Option<OutFrame> = None;
    loop {
        let first = match carry.take() {
            Some(f) => f,
            None => match rx.recv() {
                Ok(f) => {
                    depth.add(-1);
                    f
                }
                Err(_) => return Ok(()), // Hub dropped and queue drained.
            },
        };
        sleep_until(first.due);
        pending.push(first);
        // Coalesce whatever else is already due.
        let now = Instant::now();
        while pending.len() < MAX_COALESCE {
            let Ok(f) = rx.try_recv() else { break };
            depth.add(-1);
            if f.due > now {
                carry = Some(f);
                break;
            }
            pending.push(f);
        }
        write_all_vectored(conn, &pending)?;
        pending.clear();
    }
}

/// Writes every frame in `frames` as one pipelined vectored write,
/// looping on partial writes.
fn write_all_vectored(conn: &mut Conn, frames: &[OutFrame]) -> io::Result<()> {
    let mut iov: Vec<IoSlice<'_>> = frames
        .iter()
        .flat_map(|f| [IoSlice::new(&f.header), IoSlice::new(&f.payload)])
        .collect();
    let mut left = &mut iov[..];
    while !left.is_empty() {
        match conn.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
