//! Outbound side: one writer thread per peer link.

use std::collections::VecDeque;
use std::io::{IoSlice, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use rsm_core::wire::MSG_HEADER_BYTES;
use rsm_obs::{Counter, Gauge};

use crate::endpoint::{Conn, Endpoint};

/// An encoded frame queued on a link: pre-built header, shared payload
/// buffer, and the earliest instant it may hit the socket (the runtime's
/// WAN emulation: `due = enqueue + one_way(from, to) × scale`).
pub(crate) struct OutFrame {
    pub(crate) header: [u8; MSG_HEADER_BYTES],
    pub(crate) payload: Bytes,
    pub(crate) due: Instant,
}

/// Most frames coalesced into one vectored write; two iovecs per frame
/// keeps the batch far under any platform's `IOV_MAX`.
const MAX_COALESCE: usize = 64;

/// Outbound queue capacity per link. Sends block (never drop) when a
/// peer's socket falls this far behind — backpressure propagates to the
/// protocol thread, which is the correct failure mode for gap-free FIFO
/// links.
pub(crate) const LINK_QUEUE_CAP: usize = 4096;

const BACKOFF_START: Duration = Duration::from_micros(200);
const BACKOFF_MAX: Duration = Duration::from_millis(100);

/// One direction of a replica pair: a bounded queue drained by a
/// dedicated writer thread that dials the peer as soon as it is spawned,
/// coalesces queued due frames into a single vectored write, and
/// reconnects with exponential backoff, retaining every frame it could
/// not prove fully written.
pub struct PeerLink {
    tx: Option<Sender<OutFrame>>,
    /// Frames handed to [`send`](PeerLink::send) that the writer has not
    /// taken yet: the queue's length plus the frame a blocked send holds.
    /// Lock-free, so admission control and the metrics registry read it
    /// without touching the queue.
    depth: Gauge,
    /// Set when the link is dropped. The writer cannot learn that from
    /// the queue while it is unable to drain it (a dropped sender shows
    /// only once the queue is empty), and that is exactly when it must
    /// know: it is redialing a peer it cannot reach.
    closing: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl PeerLink {
    /// Spawns the writer thread for the link to `endpoint`. `reconnects`
    /// is bumped on every successful dial after the first (a torn
    /// connection was replaced).
    pub(crate) fn spawn(endpoint: Endpoint, reconnects: Counter) -> PeerLink {
        let (tx, rx) = bounded(LINK_QUEUE_CAP);
        let depth = Gauge::default();
        let closing = Arc::new(AtomicBool::new(false));
        let handle = {
            let (depth, closing) = (depth.clone(), Arc::clone(&closing));
            std::thread::Builder::new()
                .name("rsm-writer".into())
                .spawn(move || writer_loop(&endpoint, &rx, &depth, &closing, &reconnects))
                .expect("spawn link writer thread")
        };
        PeerLink {
            tx: Some(tx),
            depth,
            closing,
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
            // Err only if the writer died (shutdown race): drop silently,
            // links are lossy at teardown by design.
            let _ = tx.send(frame);
        }
    }
}

impl Drop for PeerLink {
    fn drop(&mut self) {
        // Dropping the sender lets the writer drain its queue and exit;
        // the flag releases one that cannot (its peer is unreachable).
        self.closing.store(true, Ordering::Release);
        self.tx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn writer_loop(
    endpoint: &Endpoint,
    rx: &Receiver<OutFrame>,
    depth: &Gauge,
    closing: &AtomicBool,
    reconnects: &Counter,
) {
    let mut conn: Option<Conn> = None;
    let mut connected_before = false;
    let mut pending: VecDeque<OutFrame> = VecDeque::new();
    let mut carry: Option<OutFrame> = None;
    loop {
        // Connect (at spawn / after a failure) before waiting for a frame,
        // so the first one does not pay the dial; give up only once the
        // hub is gone — an unreachable peer must not wedge shutdown,
        // whatever the writer and the queue still hold.
        let mut backoff = BACKOFF_START;
        while conn.is_none() {
            match Conn::connect(endpoint) {
                Ok(c) => {
                    if connected_before {
                        reconnects.inc();
                    }
                    connected_before = true;
                    conn = Some(c);
                }
                Err(_) => {
                    if closing.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
            }
        }
        // Refill: keep at least one frame to write, honouring due times.
        if pending.is_empty() {
            let first = match carry.take() {
                Some(f) => f,
                None => match rx.recv() {
                    Ok(f) => {
                        depth.add(-1);
                        f
                    }
                    Err(_) => return, // Hub dropped and queue drained.
                },
            };
            let now = Instant::now();
            if first.due > now {
                std::thread::sleep(first.due - now);
            }
            pending.push_back(first);
            // Coalesce whatever else is already due.
            let now = Instant::now();
            while pending.len() < MAX_COALESCE {
                let Ok(f) = rx.try_recv() else { break };
                depth.add(-1);
                if f.due > now {
                    carry = Some(f);
                    break;
                }
                pending.push_back(f);
            }
        }
        let c = conn.as_mut().expect("connected above");
        if flush(c, &mut pending).is_err() {
            // Torn connection: drop it and redial. `flush` already
            // removed every fully written frame; the partially written
            // one is resent whole on the new connection, and the
            // receiver's per-link sequence dedup swallows any overlap.
            if let Some(c) = conn.take() {
                c.shutdown();
            }
        }
    }
}

/// Writes every frame in `pending` as one pipelined vectored write
/// (looping on partial writes). On success `pending` is empty; on error
/// it retains exactly the frames not fully handed to the kernel.
fn flush(conn: &mut Conn, pending: &mut VecDeque<OutFrame>) -> std::io::Result<()> {
    let bufs: Vec<&[u8]> = pending
        .iter()
        .flat_map(|f| [&f.header[..], &f.payload[..]])
        .collect();
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let mut written = 0usize;
    let result = write_all_vectored(conn, &bufs, &mut written);
    debug_assert!(result.is_ok() == (written == total));
    drop(bufs);
    if result.is_ok() {
        pending.clear();
        return Ok(());
    }
    // Drop the frames that were fully written before the error.
    let mut covered = 0usize;
    while let Some(f) = pending.front() {
        let frame_len = MSG_HEADER_BYTES + f.payload.len();
        if covered + frame_len > written {
            break;
        }
        covered += frame_len;
        pending.pop_front();
    }
    result
}

/// Vectored `write_all`: advances through `bufs` across partial writes,
/// tracking progress in `written` so the caller can tell which buffers
/// were fully consumed when an error cuts the write short.
fn write_all_vectored(conn: &mut Conn, bufs: &[&[u8]], written: &mut usize) -> std::io::Result<()> {
    let mut idx = 0usize; // First buffer not fully written.
    let mut off = 0usize; // Bytes of bufs[idx] already written.
    while idx < bufs.len() {
        if off == bufs[idx].len() {
            idx += 1;
            off = 0;
            continue;
        }
        let iov: Vec<IoSlice<'_>> = std::iter::once(&bufs[idx][off..])
            .chain(bufs[idx + 1..].iter().copied())
            .map(IoSlice::new)
            .collect();
        let n = match conn.write_vectored(&iov) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        *written += n;
        let mut left = n;
        while left > 0 {
            let remaining_in_buf = bufs[idx].len() - off;
            if left < remaining_in_buf {
                off += left;
                left = 0;
            } else {
                left -= remaining_in_buf;
                idx += 1;
                off = 0;
            }
        }
    }
    Ok(())
}
