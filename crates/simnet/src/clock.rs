//! Loosely synchronized physical clocks.
//!
//! The paper's model (Section II-A): every replica has a physical clock
//! providing monotonically increasing timestamps, kept loosely in sync by a
//! protocol such as NTP. Clock-RSM's *correctness never depends on the
//! synchronization precision* — only its latency does — and the test suite
//! exploits this model to run the protocol under both sub-millisecond and
//! multi-second skews.
//!
//! Beyond the steady-state model, a clock takes anomalies at the virtual
//! time the simulator fires them — steps ([`PhysicalClock::jump`],
//! forward or backward), freezes ([`PhysicalClock::freeze`], VM pauses)
//! and drift bursts ([`PhysicalClock::drift_burst`], a misbehaving
//! oscillator or an aggressive NTP slew). The chaos fuzzer composes these
//! into searched fault schedules; whatever the anomaly, observed reads
//! stay strictly monotonic (the `MonotonicStamper` guard), exactly like a
//! process using `CLOCK_MONOTONIC`-derived timestamps under a stepping
//! wall clock. Each anomaly widens the sync bound as needed: an anomalous
//! clock has, by definition, escaped its synchronization daemon's
//! steering for a while.

use rsm_core::time::{Micros, MonotonicStamper};

/// Parameters describing how one replica's physical clock deviates from
/// true (simulation) time.
///
/// The effective offset at true time `t` is
/// `clamp(offset_us + drift_ppm·t, -sync_bound_us, +sync_bound_us)`:
/// a fixed initial offset, linear drift, and an NTP-like bound that models
/// the synchronization daemon steering the clock back once it strays too
/// far. The clamp also captures the worst case — a clock pinned at the
/// bound.
///
/// # Examples
///
/// ```
/// use simnet::ClockModel;
/// let m = ClockModel::ntp(1_000); // |offset| ≤ 1 ms, like a good NTP sync
/// assert_eq!(m.sync_bound_us, 1_000);
/// let skewed = ClockModel::fixed_offset(-250);
/// assert_eq!(skewed.offset_us, -250);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockModel {
    /// Initial offset from true time, microseconds (may be negative).
    pub offset_us: i64,
    /// Drift rate in parts per million of elapsed true time.
    pub drift_ppm: f64,
    /// Bound enforced by the synchronization protocol: the effective offset
    /// never exceeds ±`sync_bound_us`.
    pub sync_bound_us: u64,
}

impl ClockModel {
    /// A perfect clock: zero offset, zero drift.
    pub fn perfect() -> Self {
        ClockModel {
            offset_us: 0,
            drift_ppm: 0.0,
            sync_bound_us: 0,
        }
    }

    /// An NTP-synchronized clock whose offset stays within
    /// ±`bound_us`, with no deliberate initial offset or drift. Drivers
    /// typically add per-replica initial offsets inside the bound.
    pub fn ntp(bound_us: u64) -> Self {
        ClockModel {
            offset_us: 0,
            drift_ppm: 0.0,
            sync_bound_us: bound_us,
        }
    }

    /// A clock with a constant offset and no drift; the bound is set to
    /// accommodate the offset exactly.
    pub fn fixed_offset(offset_us: i64) -> Self {
        ClockModel {
            offset_us,
            drift_ppm: 0.0,
            sync_bound_us: offset_us.unsigned_abs(),
        }
    }

    /// Adds drift in parts per million (positive = fast clock).
    pub fn with_drift_ppm(mut self, ppm: f64) -> Self {
        assert!(
            ppm > -500_000.0,
            "drift must keep the clock monotonic (> -500000 ppm)"
        );
        self.drift_ppm = ppm;
        self
    }
}

impl Default for ClockModel {
    fn default() -> Self {
        ClockModel::perfect()
    }
}

/// A replica's physical clock: deterministic deviation from simulation time
/// plus a strict-monotonicity guarantee on reads.
///
/// # Examples
///
/// ```
/// use simnet::{ClockModel, PhysicalClock};
/// let mut c = PhysicalClock::new(ClockModel::fixed_offset(500));
/// let a = c.read(10_000);
/// assert_eq!(a, 10_500);
/// let b = c.read(10_000); // same instant: strictly monotonic reads
/// assert!(b > a);
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalClock {
    model: ClockModel,
    stamper: MonotonicStamper,
    /// The ends of running drift bursts, `(true time, ppm the burst
    /// added)`, sorted by time ascending. Applied lazily by
    /// [`read`](PhysicalClock::read) once their time passes.
    burst_ends: Vec<(Micros, f64)>,
    /// An active freeze window, if any.
    frozen: Option<Freeze>,
}

/// An active freeze: the clock is pinned at `pinned` from `started` until
/// `until` (true time); thawing debits the lost interval from the offset.
#[derive(Debug, Clone, Copy)]
struct Freeze {
    started: Micros,
    until: Micros,
    pinned: Micros,
}

impl PhysicalClock {
    /// Creates a clock from its deviation model.
    pub fn new(model: ClockModel) -> Self {
        PhysicalClock {
            model,
            stamper: MonotonicStamper::new(),
            burst_ends: Vec::new(),
            frozen: None,
        }
    }

    /// The steady-state model value at true time `now` — offset, drift,
    /// and the sync-bound clamp, plus any active freeze pin. A burst end
    /// or thaw whose time has passed but that no mutable read has
    /// processed yet is not reflected.
    pub fn raw(&self, now: Micros) -> Micros {
        if let Some(f) = &self.frozen {
            if now < f.until {
                return f.pinned;
            }
        }
        self.model_value(now)
    }

    /// The pure deviation-model value at `now`, ignoring freezes.
    fn model_value(&self, now: Micros) -> Micros {
        let drift = self.model.drift_ppm * now as f64 / 1e6;
        let eff = (self.model.offset_us as f64 + drift)
            .clamp(
                -(self.model.sync_bound_us as f64),
                self.model.sync_bound_us as f64,
            )
            .round() as i64;
        // Clocks never go below zero at the start of the simulation.
        (now as i64 + eff).max(0) as Micros
    }

    /// Widens the sync bound to accommodate the current offset — an
    /// anomalous clock has, for a while, escaped its daemon's steering.
    fn widen_bound(&mut self) {
        self.model.sync_bound_us = self
            .model
            .sync_bound_us
            .max(self.model.offset_us.unsigned_abs());
    }

    /// Changes the drift rate at true time `at`, adjusting the offset so
    /// the model value is continuous at the switch point.
    fn set_drift(&mut self, at: Micros, new_ppm: f64) {
        let old = self.model.drift_ppm;
        self.model.offset_us += ((old - new_ppm) * at as f64 / 1e6).round() as i64;
        self.model.drift_ppm = new_ppm;
        self.widen_bound();
    }

    /// Applies every drift-burst end and freeze thaw due at or before
    /// `now`, in chronological order (a thaw first on a tie). The order
    /// matters: each widens the sync bound to the offset of its moment.
    fn advance(&mut self, now: Micros) {
        loop {
            let end_at = self
                .burst_ends
                .first()
                .map(|&(t, _)| t)
                .filter(|&t| t <= now);
            let thaw_at = self.frozen.map(|f| f.until).filter(|&t| t <= now);
            match (end_at, thaw_at) {
                (_, Some(t)) if end_at.is_none_or(|e| t <= e) => self.thaw(),
                (Some(_), _) => {
                    let (at, ppm) = self.burst_ends.remove(0);
                    // The accumulated offset persists through the end.
                    self.set_drift(at, self.model.drift_ppm - ppm);
                }
                _ => return,
            }
        }
    }

    /// Ends the active freeze: the clock resumes from its pinned value,
    /// so the frozen interval is debited from the offset. (The drift
    /// accrued inside the window is not re-derived — sub-ppm error over
    /// the freeze, dwarfed by the freeze itself.)
    fn thaw(&mut self) {
        let f = self.frozen.take().expect("thaw without a freeze");
        self.model.offset_us -= (f.until - f.started) as i64;
        self.widen_bound();
    }

    /// Reads the clock at true time `now`. Successive reads return strictly
    /// increasing values even within the same simulated instant, matching
    /// the paper's use of `clock_gettime` monotonic timestamps. Readings
    /// are at least 1, so a zero timestamp can serve as a "never" sentinel.
    /// Burst ends and thaws due by `now` are applied first, in order.
    pub fn read(&mut self, now: Micros) -> Micros {
        self.advance(now);
        let raw = self.raw(now).max(1);
        self.stamper.stamp(raw)
    }

    /// The deviation model this clock follows.
    pub fn model(&self) -> ClockModel {
        self.model
    }

    /// Shifts the clock's offset by `delta_us` (and widens the sync bound
    /// to accommodate it) — fault injection for a clock step, e.g. an
    /// operator fixing a misconfigured timezone or a VM migration. Reads
    /// remain strictly monotonic regardless of the jump direction.
    pub fn jump(&mut self, delta_us: i64) {
        self.model.offset_us += delta_us;
        self.widen_bound();
    }

    /// Pins the clock at its value at true time `now` for `dur_us` — a VM
    /// pause or a stop-the-world event. When the freeze lifts, the clock
    /// resumes from the pinned value, permanently behind by the freeze
    /// (until the model's own drift or steering says otherwise).
    /// Overlapping freezes merge into one longer window.
    pub fn freeze(&mut self, now: Micros, dur_us: Micros) {
        self.advance(now);
        match &mut self.frozen {
            Some(f) => f.until = f.until.max(now + dur_us),
            None => {
                self.frozen = Some(Freeze {
                    started: now,
                    until: now + dur_us,
                    pinned: self.model_value(now),
                });
            }
        }
    }

    /// Adds `ppm` to the drift rate from true time `now` for `dur_us` — a
    /// thermal excursion or an aggressive slew. The offset accumulated
    /// during the burst persists after it ends.
    pub fn drift_burst(&mut self, now: Micros, ppm: f64, dur_us: Micros) {
        self.advance(now);
        // Pre-widen the bound by the drift the burst will accumulate, so
        // the clamp does not silently erase it.
        let accrued = (ppm.abs() * dur_us as f64 / 1e6).round() as u64;
        self.model.sync_bound_us = self.model.sync_bound_us.saturating_add(accrued);
        self.set_drift(now, self.model.drift_ppm + ppm);
        if dur_us > 0 {
            let end = now + dur_us;
            let pos = self.burst_ends.partition_point(|&(t, _)| t <= end);
            self.burst_ends.insert(pos, (end, ppm));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_tracks_true_time() {
        let mut c = PhysicalClock::new(ClockModel::perfect());
        assert_eq!(c.read(1_000), 1_000);
        assert_eq!(c.read(2_000), 2_000);
    }

    #[test]
    fn offset_applies() {
        let mut fast = PhysicalClock::new(ClockModel::fixed_offset(300));
        let mut slow = PhysicalClock::new(ClockModel::fixed_offset(-300));
        assert_eq!(fast.read(10_000), 10_300);
        assert_eq!(slow.read(10_000), 9_700);
    }

    #[test]
    fn negative_clock_clamps_to_one_not_below() {
        let mut c = PhysicalClock::new(ClockModel::fixed_offset(-5_000));
        assert_eq!(c.read(1_000), 1, "reads never return the zero sentinel");
        assert_eq!(c.raw(1_000), 0, "the raw model may still floor at zero");
    }

    #[test]
    fn drift_accumulates_until_bound() {
        // 100 ppm fast, bound 1ms: after 1s the clock is +100us; after 20s
        // it would be +2ms but the NTP bound pins it at +1ms.
        let m = ClockModel::ntp(1_000).with_drift_ppm(100.0);
        let c = PhysicalClock::new(m);
        assert_eq!(c.raw(1_000_000), 1_000_100);
        assert_eq!(c.raw(20_000_000), 20_001_000);
    }

    #[test]
    fn reads_strictly_monotonic_at_same_instant() {
        let mut c = PhysicalClock::new(ClockModel::perfect());
        let a = c.read(500);
        let b = c.read(500);
        let d = c.read(500);
        assert!(a < b && b < d);
    }

    #[test]
    fn reads_monotonic_even_when_model_steps_back() {
        // A clock at the positive bound with negative drift would read
        // backwards without the stamper; reads must still increase.
        let m = ClockModel {
            offset_us: 1_000,
            drift_ppm: -200.0,
            sync_bound_us: 1_000,
        };
        let mut c = PhysicalClock::new(m);
        let mut prev = c.read(0);
        for t in (0..10_000_000).step_by(1_000_000) {
            let v = c.read(t);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn absurd_negative_drift_rejected() {
        let _ = ClockModel::perfect().with_drift_ppm(-600_000.0);
    }

    /// Reads every multiple of `step` in `[from, to)`, asserting each is
    /// above `prev` and the one before; returns the last observed value.
    fn assert_monotonic_sweep(
        c: &mut PhysicalClock,
        (from, to): (Micros, Micros),
        step: Micros,
        mut prev: Micros,
    ) -> Micros {
        let mut t = from.next_multiple_of(step);
        while t < to {
            let v = c.read(t);
            assert!(v > prev, "read({t}) = {v} not above previous {prev}");
            prev = v;
            t += step;
        }
        prev
    }

    #[test]
    fn forward_jump_applies_at_its_time() {
        let mut c = PhysicalClock::new(ClockModel::perfect());
        assert_eq!(c.read(4_999), 4_999, "before the step: true time");
        c.jump(2_000);
        assert_eq!(c.read(5_000), 7_000, "at the step: +2ms");
        assert_eq!(c.read(6_000), 8_000, "offset persists");
    }

    #[test]
    fn backward_jump_pins_observed_clock() {
        let mut c = PhysicalClock::new(ClockModel::perfect());
        let before = c.read(4_000);
        assert_eq!(before, 4_000);
        c.jump(-2_000);
        // Raw model is now behind true time, but observed reads only creep
        // forward (monotonicity guard) until true time catches up.
        let pinned = c.read(5_000);
        assert_eq!(pinned, before + 1, "observed clock pinned, +1 per read");
        assert_eq!(c.read(6_000), pinned + 1);
        // After true time passes the old observed value + step, raw wins again.
        assert_eq!(c.read(9_000), 7_000);
    }

    #[test]
    fn freeze_pins_then_resumes_behind() {
        let mut c = PhysicalClock::new(ClockModel::perfect());
        assert_eq!(c.read(9_000), 9_000);
        c.freeze(10_000, 3_000);
        // Inside the window the raw clock is pinned at its freeze-start
        // value; the stamper turns repeated reads into +1 increments.
        assert_eq!(c.read(10_000), 10_000);
        assert_eq!(c.read(11_000), 10_001, "frozen: +1 per read");
        assert_eq!(c.read(12_999), 10_002, "still frozen");
        // Thawed: permanently behind by the 3ms freeze. Observed reads stay
        // monotonic and rejoin raw once it passes the pinned watermark.
        assert_eq!(c.read(14_000), 11_000);
        assert_eq!(c.read(20_000), 17_000);
    }

    #[test]
    fn drift_burst_accumulates_and_persists() {
        // +100000 ppm (10%) for 1s of true time → +100ms accumulated.
        let mut c = PhysicalClock::new(ClockModel::perfect());
        c.drift_burst(1_000_000, 100_000.0, 1_000_000);
        assert_eq!(c.read(1_000_000), 1_000_000, "continuous at burst start");
        assert_eq!(c.read(1_500_000), 1_550_000, "half the burst: +50ms");
        assert_eq!(c.read(2_000_000), 2_100_000, "burst end: +100ms");
        assert_eq!(c.read(3_000_000), 3_100_000, "accumulated offset persists");
    }

    #[test]
    fn burst_ends_and_thaws_apply_lazily_in_chronological_order() {
        // A burst inside a freeze, neither end read until far past both:
        // the burst ends (+1ms accrued) at 11ms, then the freeze thaws
        // (−4ms) at 12ms.
        let mut c = PhysicalClock::new(ClockModel::perfect());
        c.freeze(8_000, 4_000);
        c.drift_burst(9_000, 500_000.0, 2_000);
        assert_eq!(c.read(20_000), 17_000, "+1ms burst, −4ms freeze");
    }

    #[test]
    fn reads_monotonic_across_every_anomaly_kind() {
        let mut c = PhysicalClock::new(ClockModel::ntp(500).with_drift_ppm(40.0));
        let step = 7_919;
        let mut prev = assert_monotonic_sweep(&mut c, (0, 100_000), step, 0);
        c.jump(250_000);
        prev = assert_monotonic_sweep(&mut c, (100_000, 400_000), step, prev);
        c.freeze(400_000, 300_000);
        prev = assert_monotonic_sweep(&mut c, (400_000, 900_000), step, prev);
        c.drift_burst(900_000, -80_000.0, 500_000);
        prev = assert_monotonic_sweep(&mut c, (900_000, 1_600_000), step, prev);
        c.jump(-700_000);
        prev = assert_monotonic_sweep(&mut c, (1_600_000, 2_000_000), step, prev);
        // Overlapping freezes merge.
        c.freeze(2_000_000, 200_000);
        prev = assert_monotonic_sweep(&mut c, (2_000_000, 2_100_000), step, prev);
        c.freeze(2_100_000, 400_000);
        assert_monotonic_sweep(&mut c, (2_100_000, 4_000_001), step, prev);
    }
}
