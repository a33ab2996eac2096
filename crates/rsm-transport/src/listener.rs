//! Inbound side: accept loop + per-connection frame readers.

use std::collections::HashSet;
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
/// payload, verifies the checksum, checks the frame's place on its link,
/// decodes the message, and invokes the deliver callback. The payload is
/// read once, by the kernel, into a buffer that is reserved but never
/// zero-filled, and that buffer — not a copy of it — is what the
/// delivered message's `Bytes` fields point into (so a message that
/// outlives its frame keeps the frame's allocation alive).
///
/// A link is one connection for the listener's life. The frames on a
/// connection must come from one sender with `seq` 1, 2, 3, …, and the
/// first verified frame claims that sender, so a second connection from
/// it is refused. Any framing, sequence or decode error bumps
/// `frames_rejected` and closes the connection — the reader shuts the
/// socket down, so the sending peer's next write fails and its link goes
/// down for good; EOF ends the thread cleanly. What is delivered from a
/// sender is therefore always a gap-free prefix of what it sent.
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
    /// reader thread for every verified frame, in its sender's order, with
    /// the sending replica and the decoded message; it must hand off fast
    /// (typically one channel send into the node's inbox).
    pub fn bind<M, F>(endpoint: &Endpoint, deliver: F) -> io::Result<Listener>
    where
        M: WireMsg,
        F: Fn(ReplicaId, M) + Send + Sync + 'static,
    {
        Self::bind_with_metrics(endpoint, TransportMetrics::default(), deliver)
    }

    /// [`bind`](Listener::bind) with inbound counters: every verified
    /// delivered frame bumps `frames_recv`/`bytes_recv`, and a frame that
    /// fails its header, checksum, sequence or payload checks bumps
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
        // Every sender that has its one link here: a connection that
        // carried a verified frame from it.
        let claimed: Arc<Mutex<HashSet<ReplicaId>>> = Arc::default();
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
                    let claimed = Arc::clone(&claimed);
                    let metrics = metrics.clone();
                    let handle = std::thread::Builder::new()
                        .name("rsm-reader".into())
                        .spawn(move || {
                            // On the socket itself: see `read_frames`.
                            let read = match &mut conn {
                                Conn::Tcp(s) => read_frames(s, &*deliver, &claimed, &metrics),
                                Conn::Uds(s) => read_frames(s, &*deliver, &claimed, &metrics),
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
                    // not at `stop`: short-lived dials (probes, refused
                    // second links) would otherwise cost one of each per
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
/// (`Ok`) or the first rejected frame (`Err`).
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
    claimed: &Mutex<HashSet<ReplicaId>>,
    metrics: &TransportMetrics,
) -> Result<(), WireError> {
    let mut header_buf = [0u8; MSG_HEADER_BYTES];
    let mut sender: Option<ReplicaId> = None;
    let mut next_seq = 1u64;
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
        if header.seq != next_seq || sender.is_some_and(|s| s != header.from) {
            return Err(WireError::Inconsistent("frame out of sequence on its link"));
        }
        if sender.is_none() {
            let mut claimed = claimed.lock().expect("no reader panics holding the claims");
            if !claimed.insert(header.from) {
                return Err(WireError::Inconsistent("second link from one sender"));
            }
            sender = Some(header.from);
        }
        next_seq += 1;
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
