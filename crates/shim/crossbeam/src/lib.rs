//! Offline stand-in for the [`crossbeam`](https://docs.rs/crossbeam)
//! crate.
//!
//! Implements the `crossbeam::channel` subset the workspace uses —
//! cloneable [`channel::Sender`]s, a blocking [`channel::Receiver`] with
//! timeouts, and disconnect detection in both directions — as **one**
//! mutex + two-condvar queue behind both constructors:
//! [`channel::unbounded`] never blocks a sender; [`channel::bounded`]
//! blocks `send` while the queue holds `cap` values and fails it, handing
//! the value back, once every receiver is gone. Throughput is below real
//! crossbeam, and it matters: a saturated in-process cluster pushes
//! hundreds of thousands of values per second through these channels
//! (every client submit is one send — 250–380k/s on the repo benchmark's
//! `sat_inproc_small` — plus every peer message, and every frame on a
//! socket link), so neither side may pay for what it does not need.
//!
//! **Wake-up rules.** A condvar signal is a `futex` system call on Linux,
//! so each direction signals only a thread that is actually asleep. A
//! send signals `ready` only when a receiver is parked: receivers count
//! themselves in `Inner::parked_receivers` just before they wait and out
//! again after, and the sender reads that count while it holds the lock
//! it pushed under. The mirror holds for a full bounded queue: a sender
//! counts itself in `Inner::parked_senders` before it waits on `space`,
//! and a receive signals `space` only when that count is non-zero. Check
//! and registration share the one channel mutex, so no wake-up can be
//! lost: a thread either sees the change before it decides to park, or
//! is already counted when the other side looks. Dropping the last
//! sender wakes every receiver, and dropping the last receiver every
//! blocked sender, unconditionally.

/// Multi-producer, single/multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        /// Receivers wait here for a value.
        ready: Condvar,
        /// Senders wait here for room (bounded channels only).
        space: Condvar,
        /// Most values the queue may hold; `usize::MAX` when unbounded.
        cap: usize,
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked in `recv` / `recv_timeout` right now.
        parked_receivers: usize,
        /// Senders blocked in `send` on a full queue right now.
        parked_senders: usize,
    }

    impl<T> Shared<T> {
        /// Takes the head of the queue, waking one sender blocked on the
        /// slot this frees.
        fn pop(&self, inner: &mut Inner<T>) -> Option<T> {
            let value = inner.queue.pop_front()?;
            if inner.parked_senders > 0 {
                self.space.notify_one();
            }
            Some(value)
        }
    }

    /// Creates a channel holding at most `cap` values: a send blocks
    /// while it is full. Storage grows with use, nothing is allocated up
    /// front.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero: the rendezvous channel real crossbeam
    /// builds for that is outside this subset.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "zero-capacity channels are not implemented");
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                parked_receivers: 0,
                parked_senders: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            cap,
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded channel: a send never blocks. It is the
    /// bounded channel with a bound no queue can reach.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        bounded(usize::MAX)
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

        /// Enqueues `value`, blocking while a bounded channel is full;
        /// fails only if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            while inner.receivers > 0 && inner.queue.len() >= self.shared.cap {
                inner.parked_senders += 1;
                inner = self.shared.space.wait(inner).unwrap();
                inner.parked_senders -= 1;
            }
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            let wake = inner.parked_receivers > 0;
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
                if let Some(v) = self.shared.pop(&mut inner) {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.parked_receivers += 1;
                inner = self.shared.ready.wait(inner).unwrap();
                inner.parked_receivers -= 1;
            }
        }

        /// Blocks up to `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(v) = self.shared.pop(&mut inner) {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.parked_receivers += 1;
                let (guard, _) = self
                    .shared
                    .ready
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
                inner.parked_receivers -= 1;
            }
        }

        /// Returns immediately with a value, emptiness, or disconnection.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            if let Some(v) = self.shared.pop(&mut inner) {
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
                // Blocked senders get their values back as errors.
                self.shared.space.notify_all();
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
        // A producer runs at most 8 ahead of the consumer, so the
        // consumer keeps emptying the queue and parking while sends are
        // about to land — the window the send-side wake-up rule has to
        // cover. With every producer at its limit, a consumer that missed
        // a wake-up stays parked for good.
        race(unbounded(), 8);
        // The same race with the channel's own bound as the throttle:
        // now producers park on a full queue too, and a receive that
        // skipped its wake-up strands them.
        race(bounded(8), usize::MAX);
    }

    /// `(producer, index)`.
    type Item = (usize, usize);

    fn race((tx, rx): (Sender<Item>, Receiver<Item>), window: usize) {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 50_000;
        let consumed: Arc<[AtomicUsize; PRODUCERS]> = Arc::default();
        let gave_up = Arc::new(AtomicBool::new(false));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (tx, consumed, gave_up) = (tx.clone(), consumed.clone(), gave_up.clone());
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        while i >= consumed[p].load(Ordering::SeqCst).saturating_add(window) {
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
            "a consumer or producer is still parked: a wake-up was lost"
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

    /// Spawns a thread that sends `values` in order and reports each
    /// completed send on the returned channel.
    fn sender_thread(
        tx: Sender<u32>,
        values: std::ops::Range<u32>,
    ) -> (
        std::thread::JoinHandle<()>,
        mpsc::Receiver<Result<u32, u32>>,
    ) {
        let (sent_tx, sent_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            for v in values {
                let outcome = tx.send(v).map(|()| v).map_err(|SendError(back)| back);
                sent_tx.send(outcome).unwrap();
            }
        });
        (handle, sent_rx)
    }

    #[test]
    fn a_bounded_sender_blocks_at_cap_and_resumes_in_order() {
        const CAP: u32 = 4;
        let (tx, rx) = bounded(CAP as usize);
        let probe = tx.clone();
        let (sender, sent) = sender_thread(tx, 0..CAP + 3);
        for v in 0..CAP {
            assert_eq!(sent.recv_timeout(Duration::from_secs(20)), Ok(Ok(v)));
        }
        // The next send has nowhere to go until the receiver takes one.
        assert_eq!(
            sent.recv_timeout(Duration::from_millis(100)),
            Err(mpsc::RecvTimeoutError::Timeout),
            "a send went through a full queue"
        );
        assert_eq!(probe.len(), CAP as usize);
        for v in 0..CAP + 3 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(20)), Ok(v), "FIFO");
            // Each receive frees exactly one slot: sends `CAP..` complete
            // one at a time, in order, as the queue drains.
            if v < 3 {
                assert_eq!(sent.recv_timeout(Duration::from_secs(20)), Ok(Ok(CAP + v)));
            }
        }
        sender.join().unwrap();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn dropping_the_receiver_hands_a_blocked_sender_its_value_back() {
        let (tx, rx) = bounded(1);
        let (sender, sent) = sender_thread(tx, 7..9);
        assert_eq!(sent.recv_timeout(Duration::from_secs(20)), Ok(Ok(7)));
        // Nothing outside the channel can observe the park; give the
        // thread time to get there. Either order must end in `Err(8)`.
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        let got = sent.recv_timeout(Duration::from_secs(20));
        assert_eq!(got, Ok(Err(8)), "blocked sender not released");
        sender.join().unwrap();
    }

    #[test]
    fn a_bounded_one_channel_hands_off_across_threads() {
        let (tx, rx) = bounded(1);
        let (sender, _sent) = sender_thread(tx, 0..1000);
        for v in 0..1000 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(20)), Ok(v));
        }
        sender.join().unwrap();
        assert_eq!(rx.recv(), Err(RecvError), "sender gone, queue empty");
    }
}
