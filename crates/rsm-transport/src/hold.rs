//! The emulated link's hold rule: a held message is never released
//! before its due instant, and is released within [`EARLY`] of it —
//! unless the park that ends `EARLY` before it overshoots by more than
//! `EARLY`, which a busy host still allows (the p99 below).
//!
//! Both holders of a delayed message use it — the runtime's node loop,
//! for peer messages it keeps in its due-time heap, and a link writer,
//! for the frame it is about to write.

use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};

/// How long before a held message's due instant its holder stops parking
/// and polls instead.
///
/// A timed park wakes late: on a 2-core Linux host a 250 µs
/// `Condvar::wait_timeout` overshot by 73 µs at p50, 134 µs at p90 and
/// ~3 ms at p99 (2 000 samples) — the kernel's 50 µs default timer slack
/// plus the wake-up. Parking until `due − EARLY` and polling the rest of
/// the way absorbs the slack; the polling yields the core between tries,
/// so any runnable thread keeps it.
pub const EARLY: Duration = Duration::from_micros(60);

/// Holds until `due`: parks through `park(timeout)` until [`EARLY`]
/// before it, then tries `poll`, yielding the core between tries, until
/// `due` has passed. Returns the first value either produces, or `None`
/// — and then never before `due`.
fn hold<T>(
    due: Instant,
    mut park: impl FnMut(Duration) -> Option<T>,
    mut poll: impl FnMut() -> Option<T>,
) -> Option<T> {
    if let Some(lead) = due
        .checked_sub(EARLY)
        .and_then(|wake| wake.checked_duration_since(Instant::now()))
    {
        if let Some(v) = park(lead) {
            return Some(v);
        }
    }
    loop {
        if let Some(v) = poll() {
            return Some(v);
        }
        if Instant::now() >= due {
            return None;
        }
        thread::yield_now();
    }
}

/// Receives from `rx` by the hold rule: the next value sent before `due`,
/// or `Err(Timeout)` once `due` has passed — never earlier.
pub fn recv_until<T>(rx: &Receiver<T>, due: Instant) -> Result<T, RecvTimeoutError> {
    hold(
        due,
        |timeout| match rx.recv_timeout(timeout) {
            Err(RecvTimeoutError::Timeout) => None,
            got => Some(got),
        },
        || match rx.try_recv() {
            Ok(v) => Some(Ok(v)),
            Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
            Err(TryRecvError::Empty) => None,
        },
    )
    .unwrap_or(Err(RecvTimeoutError::Timeout))
}

/// Sleeps by the hold rule: returns at `due` or just after, never before.
pub(crate) fn sleep_until(due: Instant) {
    hold(
        due,
        |timeout| {
            thread::sleep(timeout);
            None::<()>
        },
        || None,
    );
}
