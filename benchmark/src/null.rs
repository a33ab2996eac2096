//! A protocol that orders nothing: the fixture behind the `node.*` and
//! `net.*` layer metrics and the single-node baseline.
//!
//! [`NullProtocol::commit_at_origin`] commits every client batch on
//! the spot and sends nothing, so a run measures the runtime alone
//! (inbox, drain, commit, reply router, wake-up).
//! [`NullProtocol::bounce`] first sends one message to the next
//! replica and commits when the echo returns, which adds exactly two
//! message hops of the configured plane.

use std::collections::VecDeque;

use bytes::{BufMut, BytesMut};
use rsm_core::batch::Batch;
use rsm_core::command::{Command, Committed};
use rsm_core::id::ReplicaId;
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::wire::{
    WireDecode, WireEncode, WireError, WireMsg, WireReader, WireSize, MSG_HEADER_BYTES,
};

/// The bounce variant's two messages, each naming the batch it is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NullMsg {
    Ping(u64),
    Pong(u64),
}

impl WireSize for NullMsg {
    fn wire_size(&self) -> usize {
        MSG_HEADER_BYTES + 9
    }
}

impl WireEncode for NullMsg {
    fn encode(&self, buf: &mut BytesMut) {
        let (tag, n) = match *self {
            NullMsg::Ping(n) => (0, n),
            NullMsg::Pong(n) => (1, n),
        };
        buf.put_u8(tag);
        buf.put_u64(n);
    }
}

impl WireDecode for NullMsg {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(NullMsg::Ping(r.u64()?)),
            1 => Ok(NullMsg::Pong(r.u64()?)),
            tag => Err(WireError::BadTag { ty: "NullMsg", tag }),
        }
    }
}

impl WireMsg for NullMsg {}

#[derive(Debug)]
pub struct NullProtocol {
    id: ReplicaId,
    /// Where the bounce variant sends its ping; `None` commits at once.
    peer: Option<ReplicaId>,
    order: u64,
    /// Batches awaiting their echo, oldest first (links are FIFO).
    waiting: VecDeque<(u64, Batch)>,
}

impl NullProtocol {
    pub fn commit_at_origin(id: ReplicaId) -> Self {
        NullProtocol {
            id,
            peer: None,
            order: 0,
            waiting: VecDeque::new(),
        }
    }

    /// Replica `id` of `n`, bouncing off replica `id + 1`.
    pub fn bounce(id: ReplicaId, n: u16) -> Self {
        NullProtocol {
            peer: Some(ReplicaId::new((id.as_u16() + 1) % n)),
            ..NullProtocol::commit_at_origin(id)
        }
    }

    fn commit_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        for cmd in batch {
            self.order += 1;
            ctx.commit(Committed {
                cmd,
                origin: self.id,
                order_hint: self.order,
            });
        }
    }
}

impl Protocol for NullProtocol {
    type Msg = NullMsg;
    type LogRec = ();

    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, _ctx: &mut dyn Context<Self>) {}

    fn on_client_request(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        self.on_client_batch(Batch::single(cmd), ctx);
    }

    fn on_client_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        match self.peer {
            None => self.commit_batch(batch, ctx),
            Some(peer) => {
                self.order += 1;
                self.waiting.push_back((self.order, batch));
                ctx.send(peer, NullMsg::Ping(self.order));
            }
        }
    }

    fn on_message(&mut self, from: ReplicaId, msg: NullMsg, ctx: &mut dyn Context<Self>) {
        match msg {
            NullMsg::Ping(n) => ctx.send(from, NullMsg::Pong(n)),
            NullMsg::Pong(n) => {
                if self.waiting.front().is_some_and(|(want, _)| *want == n) {
                    let (_, batch) = self.waiting.pop_front().expect("checked above");
                    self.commit_batch(batch, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut dyn Context<Self>) {}

    fn on_recover(&mut self, _log: &[()], _ctx: &mut dyn Context<Self>) {}
}
