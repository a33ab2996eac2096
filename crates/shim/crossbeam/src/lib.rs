//! Offline stand-in for the [`crossbeam`](https://docs.rs/crossbeam)
//! crate.
//!
//! Implements the `crossbeam::channel` subset the runtime uses — cloneable
//! [`channel::Sender`]s, a blocking [`channel::Receiver`] with timeouts,
//! and disconnect detection in both directions — over a mutex + condvar
//! queue. Throughput is below real crossbeam, and it matters: a saturated
//! in-process cluster pushes hundreds of thousands of values per second
//! through these channels (every client submit is one send — 250–380k/s
//! on the repo benchmark's `sat_inproc_small` — plus every peer message
//! and reply batch), so a send must not pay for what it does not need.
//!
//! **Wake-up rule.** A send signals the condvar — a `futex` system call
//! on Linux — only when a receiver is parked. Receivers count themselves
//! in `Inner::parked` just before they wait and out again after, and the
//! sender reads that count while it holds the lock it pushed under.
//! Check and registration share the one channel mutex, so no wake-up can
//! be lost: a receiver either sees the new value before it decides to
//! park, or is already counted when the sender looks. Dropping the last
//! sender still wakes everyone unconditionally.

/// Multi-producer, single/multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        ready: Condvar,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked in `recv` / `recv_timeout` right now.
        parked: usize,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                parked: 0,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates a "bounded" channel. This shim does not enforce the bound
    /// (sends never block); the workspace only uses small bounds as
    /// rendezvous buffers, where the distinction is unobservable.
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    /// An error returned by [`Sender::send`] when every receiver is gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // No `T: Debug` bound, matching crossbeam: the payload is elided.
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// An error returned by [`Receiver::recv`] when the channel is empty
    /// and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Errors returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender dropped.
        Disconnected,
    }

    /// Errors returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and every sender dropped.
        Disconnected,
    }

    /// The sending half; clone freely.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Number of values currently queued (admission control samples
        /// inbox depth from the sending side).
        pub fn len(&self) -> usize {
            self.shared.inner.lock().unwrap().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.shared.inner.lock().unwrap().queue.is_empty()
        }

        /// Enqueues `value`, failing only if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            let wake = inner.parked > 0;
            drop(inner);
            if wake {
                self.shared.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                self.shared.ready.notify_all();
            }
        }
    }

    /// The receiving half.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.parked += 1;
                inner = self.shared.ready.wait(inner).unwrap();
                inner.parked -= 1;
            }
        }

        /// Blocks up to `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.parked += 1;
                let (guard, _) = self
                    .shared
                    .ready
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
                inner.parked -= 1;
            }
        }

        /// Returns immediately with a value, emptiness, or disconnection.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            if let Some(v) = inner.queue.pop_front() {
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.shared.inner.lock().unwrap().queue.is_empty()
        }

        /// Number of values currently queued.
        pub fn len(&self) -> usize {
            self.shared.inner.lock().unwrap().queue.len()
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                // Nobody can receive these any more: discard them now, as
                // crossbeam does, not when the last sender goes. Dropped
                // outside the lock so a payload's `Drop` cannot deadlock.
                let backlog = std::mem::take(&mut inner.queue);
                drop(inner);
                drop(backlog);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn fifo_roundtrip() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn disconnect_on_sender_drop() {
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn disconnect_on_receiver_drop() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn timeout_fires() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().unwrap());
        }
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn racing_sends_never_lose_a_wake_up() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 50_000;
        // A producer runs at most this far ahead of the consumer, so the
        // consumer keeps emptying the queue and parking while sends are
        // about to land — the window the wake-up rule has to cover. With
        // every producer at its limit, a consumer that missed a wake-up
        // stays parked for good.
        const WINDOW: usize = 8;
        let (tx, rx) = unbounded::<(usize, usize)>();
        let consumed: Arc<[AtomicUsize; PRODUCERS]> = Arc::default();
        let gave_up = Arc::new(AtomicBool::new(false));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (tx, consumed, gave_up) = (tx.clone(), consumed.clone(), gave_up.clone());
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        while i >= consumed[p].load(Ordering::SeqCst) + WINDOW {
                            if gave_up.load(Ordering::SeqCst) {
                                return;
                            }
                            std::thread::yield_now();
                        }
                        tx.send((p, i)).unwrap();
                    }
                })
            })
            .collect();
        let (done_tx, done_rx) = mpsc::channel();
        let consumer = {
            let consumed = consumed.clone();
            std::thread::spawn(move || {
                // `consumed[p]` is also the next value expected from `p`:
                // that checks order and, with the total, exactly-once.
                let total = || {
                    consumed
                        .iter()
                        .map(|c| c.load(Ordering::SeqCst))
                        .sum::<usize>()
                };
                let mut turn = 0usize;
                while total() < PRODUCERS * PER_PRODUCER {
                    let got = match turn % 3 {
                        0 => rx.recv().ok(),
                        1 => rx.recv_timeout(Duration::from_micros(50)).ok(),
                        _ => rx.try_recv().ok(),
                    };
                    turn += 1;
                    if let Some((p, i)) = got {
                        let next = consumed[p].fetch_add(1, Ordering::SeqCst);
                        assert_eq!(i, next, "producer {p} out of order or duplicated");
                    }
                }
                assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "extra value");
                done_tx.send(()).unwrap();
            })
        };
        // `tx` is still alive here, so a consumer stuck in `recv()` is not
        // rescued by the disconnect wake-up: a lost wake-up is this
        // watchdog, not a hang.
        let verdict = done_rx.recv_timeout(Duration::from_secs(20));
        gave_up.store(true, Ordering::SeqCst);
        assert_ne!(
            verdict,
            Err(mpsc::RecvTimeoutError::Timeout),
            "consumer still parked with values queued: a wake-up was lost"
        );
        consumer.join().expect("consumer");
        for p in producers {
            p.join().expect("producer");
        }
    }

    #[test]
    fn a_send_to_an_unparked_receiver_is_seen_by_try_recv() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(2));
    }

    #[test]
    fn dropping_the_last_sender_wakes_a_parked_recv() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let (done_tx, done_rx) = mpsc::channel();
        let parked = std::thread::spawn(move || done_tx.send(rx.recv()).unwrap());
        // Nothing outside the channel can observe the park; give the
        // thread time to get there. Either order must end in `Err`.
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        drop(tx2);
        let got = done_rx.recv_timeout(Duration::from_secs(20));
        assert_eq!(got, Ok(Err(RecvError)), "parked recv not woken");
        parked.join().unwrap();
    }

    #[test]
    fn dropping_the_receiver_discards_the_backlog() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = unbounded();
        for _ in 0..3 {
            tx.send(Counted(Arc::clone(&drops))).unwrap();
        }
        drop(rx);
        // The sender is still alive: the backlog must not wait for it.
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        assert!(tx.send(Counted(Arc::clone(&drops))).is_err());
        assert_eq!(drops.load(Ordering::SeqCst), 4);
    }
}
