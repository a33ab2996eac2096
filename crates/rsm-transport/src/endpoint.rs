//! Transport endpoints and the stream abstraction over TCP / UDS.

use std::io::{self, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where a replica listens: a TCP socket address or a Unix socket path.
///
/// TCP endpoints may be created with port `0`;
/// [`Listener::bind`](crate::Listener::bind) reports the OS-assigned
/// port back via
/// [`Listener::endpoint`](crate::Listener::endpoint), which is what
/// peers must dial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:0` for an OS-assigned loopback port.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Endpoint {
    /// A loopback TCP endpoint with an OS-assigned port.
    pub fn tcp_loopback() -> Endpoint {
        Endpoint::Tcp(SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// A fresh Unix socket path under the system temp directory, unique
    /// across processes (pid) and within this process (counter), tagged
    /// for debuggability.
    pub fn uds_temp(tag: &str, node: u16) -> Endpoint {
        let n = UDS_COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "rsm-{}-{}-{}-{}.sock",
            std::process::id(),
            n,
            tag,
            node
        ));
        Endpoint::Uds(path)
    }
}

/// A connected byte stream over either family. Both variants give the
/// same blocking `Write` (with real vectored writes) plus half-aware
/// shutdown; `TCP_NODELAY` is set on TCP so small frames are not
/// Nagle-delayed. Reading is done on the socket inside, not through a
/// `Read` of `Conn`'s own (see `listener::read_frames`).
pub(crate) enum Conn {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Conn {
    pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            Endpoint::Uds(path) => Ok(Conn::Uds(UnixStream::connect(path)?)),
        }
    }

    pub(crate) fn from_tcp(s: TcpStream) -> io::Result<Conn> {
        s.set_nodelay(true)?;
        Ok(Conn::Tcp(s))
    }

    pub(crate) fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Uds(s) => Conn::Uds(s.try_clone()?),
        })
    }

    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Uds(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write_vectored(bufs),
            Conn::Uds(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Uds(s) => s.flush(),
        }
    }
}
