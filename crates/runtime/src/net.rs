//! The WAN-emulating network thread.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};

use rsm_core::id::ReplicaId;
use rsm_core::matrix::LatencyMatrix;

/// A message travelling between replicas.
#[derive(Debug)]
pub struct Wire<M> {
    /// Sender replica.
    pub from: ReplicaId,
    /// Destination replica.
    pub to: ReplicaId,
    /// The payload.
    pub msg: M,
}

pub(crate) enum NetInput<M> {
    Send(Wire<M>),
    Stop,
}

struct InFlight<M> {
    due: Instant,
    seq: u64,
    wire: Wire<M>,
}

impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Runs the network loop: receives sends, holds each message for the
/// link's one-way latency (scaled), then hands it to `deliver`, which
/// puts it in the destination node's inbox. Per-link FIFO follows from
/// constant latency plus the sequence tie-break.
pub(crate) fn run_network<M: Send + 'static>(
    latency: LatencyMatrix,
    scale: f64,
    rx: Receiver<NetInput<M>>,
    mut deliver: impl FnMut(Wire<M>),
) {
    let mut heap: BinaryHeap<Reverse<InFlight<M>>> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(f)| f.due <= now) {
            let Reverse(flight) = heap.pop().expect("peeked");
            deliver(flight.wire);
        }
        // Wait for the next send or the next due time.
        let input = match heap.peek() {
            Some(Reverse(f)) => {
                let timeout = f.due.saturating_duration_since(Instant::now());
                match rx.recv_timeout(timeout) {
                    Ok(i) => i,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
            None => match rx.recv() {
                Ok(i) => i,
                Err(_) => return,
            },
        };
        match input {
            NetInput::Send(wire) => {
                let one_way = latency.one_way(wire.from, wire.to);
                let delay = Duration::from_micros((one_way as f64 * scale) as u64);
                seq += 1;
                heap.push(Reverse(InFlight {
                    due: Instant::now() + delay,
                    seq,
                    wire,
                }));
            }
            NetInput::Stop => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn delivers_with_delay_and_in_order() {
        let latency = LatencyMatrix::uniform(2, 20_000); // 20 ms one-way
        let (tx, rx) = unbounded();
        let (in0, out0) = unbounded();
        let (in1, out1) = unbounded();
        let inboxes = [in0, in1];
        let handle = std::thread::spawn(move || {
            run_network::<u32>(latency, 0.1, rx, |w| {
                inboxes[w.to.index()].send(w).unwrap();
            });
        });
        let start = Instant::now();
        for i in 0..5 {
            tx.send(NetInput::Send(Wire {
                from: ReplicaId::new(0),
                to: ReplicaId::new(1),
                msg: i,
            }))
            .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..5 {
            got.push(out1.recv_timeout(Duration::from_secs(2)).unwrap().msg);
        }
        let elapsed = start.elapsed();
        assert_eq!(got, vec![0, 1, 2, 3, 4], "FIFO per link");
        assert!(elapsed >= Duration::from_millis(2), "scaled 2 ms delay");
        assert!(out0.is_empty());
        tx.send(NetInput::Stop).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn stops_on_disconnect() {
        let latency = LatencyMatrix::uniform(2, 1_000);
        let (tx, rx) = unbounded::<NetInput<u32>>();
        let handle = std::thread::spawn(move || {
            run_network::<u32>(latency, 1.0, rx, |_| {});
        });
        drop(tx);
        handle.join().unwrap();
    }
}
