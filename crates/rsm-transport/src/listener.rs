//! Inbound side: accept loop + per-connection frame readers.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bytes::Bytes;
use rsm_core::id::ReplicaId;
use rsm_core::wire::{decode_payload, FrameHeader, WireError, WireMsg, MSG_HEADER_BYTES};

use crate::endpoint::{Conn, Endpoint};
use crate::hub::TransportMetrics;

enum Acceptor {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Acceptor {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Acceptor::Tcp(l) => Conn::from_tcp(l.accept()?.0),
            Acceptor::Uds(l) => Ok(Conn::Uds(l.accept()?.0)),
        }
    }
}

/// A bound endpoint accepting framed connections.
///
/// Each accepted connection gets its own reader thread: it reads the
/// 32-byte [`FrameHeader`], validates magic/version/length, reads the
/// payload, verifies the checksum, deduplicates by per-sender sequence
/// number, decodes the message, and invokes the deliver callback. The
/// payload is read once, by the kernel, into a buffer that is reserved
/// but never zero-filled, and that buffer — not a copy of it — is what
/// the delivered message's `Bytes` fields point into (so a message that
/// outlives its frame keeps the frame's allocation alive). Any
/// framing or decode error bumps `frames_rejected` and closes the
/// connection — the reader shuts the socket down, so the sending peer's
/// next write fails and it redials; EOF ends the thread cleanly. The
/// rejected frame itself is **not** resent: a writer retains only what
/// it could not hand to the kernel, and there is no ack layer above it.
///
/// What the listener holds is bounded by its **live** connections: every
/// accept lets go of the readers that have finished since the last one.
pub struct Listener {
    endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    readers: Readers,
}

/// Each reader thread with a second handle on its socket, through which
/// `stop` unblocks a reader parked in `read`.
type Readers = Arc<Mutex<Vec<(JoinHandle<()>, Option<Conn>)>>>;

impl Listener {
    /// Binds `endpoint` and starts accepting. `deliver` is called on the
    /// reader thread for every verified, deduplicated frame, with the
    /// sending replica and the decoded message; it must hand off fast
    /// (typically one channel send into the node's inbox).
    pub fn bind<M, F>(endpoint: &Endpoint, deliver: F) -> io::Result<Listener>
    where
        M: WireMsg,
        F: Fn(ReplicaId, M) + Send + Sync + 'static,
    {
        Self::bind_with_metrics(endpoint, TransportMetrics::default(), deliver)
    }

    /// [`bind`](Listener::bind) with inbound counters: every verified
    /// delivered frame bumps `frames_recv`/`bytes_recv`, frames dropped
    /// by the reconnect-resend sequence dedup bump `dup_frames`, and a
    /// frame that fails header, checksum or payload decoding bumps
    /// `frames_rejected`.
    pub fn bind_with_metrics<M, F>(
        endpoint: &Endpoint,
        metrics: TransportMetrics,
        deliver: F,
    ) -> io::Result<Listener>
    where
        M: WireMsg,
        F: Fn(ReplicaId, M) + Send + Sync + 'static,
    {
        let (acceptor, bound) = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let actual = Endpoint::Tcp(l.local_addr()?);
                (Acceptor::Tcp(l), actual)
            }
            Endpoint::Uds(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                (Acceptor::Uds(l), Endpoint::Uds(path.clone()))
            }
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let readers = Readers::default();
        // Last delivered frame sequence per sender, shared by all reader
        // threads of this listener: a reconnecting peer resends anything
        // it could not prove fully written, and this map drops the
        // overlap so links stay exactly-once from the node's viewpoint.
        let last_seq: Arc<Mutex<HashMap<u16, u64>>> = Arc::new(Mutex::new(HashMap::new()));
        let deliver = Arc::new(deliver);

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let readers = Arc::clone(&readers);
            std::thread::Builder::new()
                .name("rsm-accept".into())
                .spawn(move || loop {
                    let mut conn = match acceptor.accept() {
                        Ok(c) => c,
                        Err(_) => {
                            if shutdown.load(Ordering::Acquire) {
                                return;
                            }
                            continue;
                        }
                    };
                    if shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let clone = conn.try_clone().ok();
                    let deliver = Arc::clone(&deliver);
                    let last_seq = Arc::clone(&last_seq);
                    let metrics = metrics.clone();
                    let handle = std::thread::Builder::new()
                        .name("rsm-reader".into())
                        .spawn(move || {
                            // On the socket itself: see `read_frames`.
                            let read = match &mut conn {
                                Conn::Tcp(s) => read_frames(s, &*deliver, &last_seq, &metrics),
                                Conn::Uds(s) => read_frames(s, &*deliver, &last_seq, &metrics),
                            };
                            if read.is_err() {
                                metrics.frames_rejected.inc();
                            }
                            // `readers` holds a clone of this socket, so
                            // dropping `conn` would leave it open and the
                            // peer writing into a stream nobody reads.
                            conn.shutdown();
                        })
                        .expect("spawn reader thread");
                    // A finished reader's handle and descriptor go here,
                    // not at `stop`: a peer that redials after every torn
                    // connection would otherwise cost one of each per
                    // dial for as long as the listener lives.
                    let mut readers = readers.lock().unwrap();
                    readers.retain(|(reader, _)| !reader.is_finished());
                    readers.push((handle, clone));
                })
                .expect("spawn accept thread")
        };

        Ok(Listener {
            endpoint: bound,
            shutdown,
            accept_handle: Some(accept_handle),
            readers,
        })
    }

    /// The actual bound endpoint — for TCP with port `0`, this carries
    /// the OS-assigned port peers must dial.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Stops accepting, unblocks and joins every reader, and removes a
    /// UDS socket file. Idempotent; also run by `Drop`.
    pub fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the accept loop with a throwaway connection.
        let _ = Conn::connect(&self.endpoint);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let readers = std::mem::take(&mut *self.readers.lock().unwrap());
        for (reader, conn) in readers {
            // Unblock a reader still parked in read() on a live connection.
            if let Some(conn) = conn {
                conn.shutdown();
            }
            let _ = reader.join();
        }
        if let Endpoint::Uds(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads frames off one connection until EOF or a torn connection
/// (`Ok`; the peer redials) or the first malformed frame (`Err`).
///
/// The payload buffer is reserved, never zero-filled: `read_to_end` hands
/// the reader the vector's spare capacity, and std's socket types read
/// straight into it. For a `Read` that only implements `read`, as a
/// wrapper enum must, std zeroes that capacity first — which is why the
/// caller passes the socket itself. The same vector, unmoved, then backs
/// the decoded message's `Bytes`.
fn read_frames<M: WireMsg>(
    conn: &mut impl Read,
    deliver: &(dyn Fn(ReplicaId, M) + Send + Sync),
    last_seq: &Mutex<HashMap<u16, u64>>,
    metrics: &TransportMetrics,
) -> Result<(), WireError> {
    let mut header_buf = [0u8; MSG_HEADER_BYTES];
    loop {
        if conn.read_exact(&mut header_buf).is_err() {
            return Ok(());
        }
        let header = FrameHeader::decode(&header_buf)?;
        let len = header.len as usize;
        let mut payload = Vec::with_capacity(len);
        match conn.by_ref().take(len as u64).read_to_end(&mut payload) {
            Ok(read) if read == len => {}
            // EOF or an error part-way: torn, not malformed.
            _ => return Ok(()),
        }
        let payload = Bytes::from(payload);
        header.verify_payload(&payload)?;
        {
            let mut seqs = last_seq.lock().unwrap();
            let last = seqs.entry(header.from.as_u16()).or_insert(0);
            if header.seq <= *last {
                metrics.dup_frames.inc();
                continue; // Duplicate from a reconnect resend.
            }
            *last = header.seq;
        }
        let msg = decode_payload::<M>(payload)?;
        metrics.frames_recv.inc();
        metrics
            .bytes_recv
            .add((MSG_HEADER_BYTES + header.len as usize) as u64);
        deliver(header.from, msg);
    }
}

#[cfg(test)]
impl Listener {
    /// Reader threads (and socket clones) currently held.
    pub(crate) fn held(&self) -> usize {
        self.readers.lock().unwrap().len()
    }
}
