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
//! * [`Hub`] — a node's outbound side: one [`PeerLink`] writer thread
//!   per peer behind a `crossbeam::channel::bounded` queue — the same
//!   channel the runtime's inboxes use. It **blocks** a sender that
//!   outruns the peer's socket and never drops: the paper's protocols
//!   are proved over reliable FIFO links, and a later timestamp from a
//!   replica is taken as proof that nothing earlier from it is
//!   outstanding, so a frame shed under load would be a safety bug, not
//!   a slow-down. Plus a one-entry encode cache keyed by
//!   [`WireMsg::shares_encoding`](rsm_core::wire::WireMsg::shares_encoding)
//!   so a broadcast encodes its payload **once** and every per-peer send
//!   reuses the same `Bytes` buffer.
//! * [`MsgSink`] — the object-safe sending trait the runtime stores, so
//!   its node harness stays free of `WireMsg` bounds.
//!
//! ## Link semantics
//!
//! Each ordered replica pair `(i → j)` uses one connection, dialed by
//! `i`'s writer thread and accepted by `j`'s listener, so delivery is
//! FIFO per link — the channel assumption every protocol in the
//! workspace relies on. Writer threads coalesce all queued due frames
//! into a single vectored write (pipelining), honour a per-link minimum
//! delay (the runtime's WAN emulation rides on it), and reconnect with
//! exponential backoff, retaining unsent frames. Frames carry a strictly
//! increasing per-link sequence number; receivers drop non-increasing
//! sequences so a resend after a torn connection can never duplicate a
//! delivered frame.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod endpoint;
mod hub;
mod link;
mod listener;

pub use endpoint::Endpoint;
pub use hub::{Hub, MsgSink, TransportMetrics};
pub use link::PeerLink;
pub use listener::Listener;

#[cfg(test)]
mod tests;
