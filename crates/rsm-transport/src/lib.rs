//! # rsm-transport
//!
//! Framed socket transport for the threaded runtime: real TCP (loopback
//! or otherwise) and Unix-domain-socket links carrying the binary wire
//! format defined in [`rsm_core::wire`].
//!
//! The crate is deliberately small and `std`-only — blocking sockets and
//! one thread per direction of each link, matching the runtime's
//! thread-per-replica architecture:
//!
//! * [`Endpoint`] — a TCP socket address or a Unix socket path.
//! * [`Listener`] — binds an endpoint and spawns one reader thread per
//!   accepted connection. Each reader decodes length-prefixed frames
//!   ([`FrameHeader`](rsm_core::wire::FrameHeader) + payload), verifies
//!   the checksum, and hands the decoded message to a deliver callback.
//! * [`Hub`] — a node's outbound side: one writer thread per peer link
//!   behind a `crossbeam::channel::bounded` queue — the same channel the
//!   runtime's inboxes use. It **blocks** a sender that outruns a live
//!   peer's socket and never drops a frame on a live link: the paper's
//!   protocols are proved over reliable FIFO links, and a later
//!   timestamp from a replica is taken as proof that nothing earlier
//!   from it is outstanding, so a frame shed under load would be a
//!   safety bug, not a slow-down. Plus a one-entry encode cache keyed by
//!   [`WireMsg::shares_encoding`](rsm_core::wire::WireMsg::shares_encoding)
//!   so a broadcast encodes its payload **once** and every per-peer send
//!   reuses the same `Bytes` buffer.
//! * [`MsgSink`] — the object-safe sending trait the runtime stores, so
//!   its node harness stays free of `WireMsg` bounds.
//!
//! ## Link semantics
//!
//! Each ordered replica pair `(i → j)` uses one connection for its whole
//! life, dialed once by `i`'s writer thread and accepted by `j`'s
//! listener. Writer threads coalesce all queued due frames into a single
//! vectored write (pipelining) and honour a per-link minimum delay (the
//! runtime's WAN emulation rides on it) by the hold rule, [`recv_until`]'s
//! too: a frame is never written before its due instant, and is written
//! within [`EARLY`] of it. Frames carry the per-link sequence 1, 2, 3, …;
//! the listener refuses any other, and any second connection from a
//! sender it has delivered from.
//!
//! A link is therefore FIFO and gap-free — the channel assumption every
//! protocol in the workspace relies on — or it is down, and counted. A
//! failed dial, a failed write or a refused frame closes the connection;
//! the writer bumps `links_down` and drops every later frame for that
//! peer, which the protocols see as a partition they already survive.
//! There is no redial: the writer cannot know which of the frames it
//! wrote the peer took, and a resumed stream could deliver past a lost
//! one.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod endpoint;
mod hold;
mod hub;
mod link;
mod listener;

pub use endpoint::Endpoint;
pub use hold::{recv_until, EARLY};
pub use hub::{Hub, MsgSink, TransportMetrics};
pub use listener::Listener;

#[cfg(test)]
mod tests;
