//! Per-command trace spans with deterministic sampling.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Stage slots a span can carry. Drivers map their protocol-level stage
/// enum (`rsm_core::obs::TraceStage`) onto indexes below this bound.
pub const MAX_STAGES: usize = 8;

/// Spans retained per tracer (completed + open). Beyond the cap new
/// spans are counted as dropped instead of recorded, bounding memory on
/// unsampled long runs; see [`Tracer::dropped`].
const MAX_SPANS: usize = 1 << 20;

/// Observability configuration shared by both drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Trace 1-in-2^shift commands (0 = every command), selected by a
    /// deterministic hash of the span key so replays sample the same
    /// commands.
    pub sample_shift: u32,
    /// How often (in the driver's time unit, microseconds everywhere in
    /// this workspace) the driver polls protocols for gauge
    /// state (`Protocol::obs_poll`: stable-timestamp lag, `LatestTV`
    /// staleness, ballot).
    pub poll_interval: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            sample_shift: 0,
            poll_interval: 10_000,
        }
    }
}

impl ObsConfig {
    /// Trace every command, poll every 10 ms.
    pub fn all() -> Self {
        ObsConfig::default()
    }

    /// Sets the sampling shift (trace 1-in-2^`shift` commands).
    pub fn sample_shift(mut self, shift: u32) -> Self {
        self.sample_shift = shift;
        self
    }
}

/// One traced command's stage stamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The span key (packed from the command id by the driver).
    pub key: u64,
    /// The replica the command was submitted at; mid-pipeline stages
    /// are stamped only there (every replica replicates and executes a
    /// command, but only the origin's pipeline is the client's latency).
    pub origin: u16,
    /// First-wins stage timestamps, indexed by the driver's stage enum.
    pub stages: [Option<u64>; MAX_STAGES],
    /// Same-key re-submissions observed after the first (client
    /// retries re-enter stage 0 without resetting the stamps).
    pub retries: u32,
}

impl Span {
    /// The stamp of `stage`, if recorded.
    pub fn stage(&self, stage: usize) -> Option<u64> {
        self.stages[stage]
    }

    /// `later - earlier` when both stages are stamped.
    pub fn delta(&self, earlier: usize, later: usize) -> Option<u64> {
        Some(self.stages[later]?.saturating_sub(self.stages[earlier]?))
    }
}

#[derive(Debug, Default)]
struct TraceState {
    open: HashMap<u64, Span>,
    /// Completed spans in completion order (deterministic under simnet).
    done: Vec<Span>,
    dropped: u64,
}

/// Collects [`Span`]s across one run. Cloning shares the collector;
/// all methods take `&self` and are thread-safe (the threaded runtime
/// stamps from node and client threads).
#[derive(Clone, Debug)]
pub struct Tracer {
    cfg: ObsConfig,
    state: Arc<Mutex<TraceState>>,
}

/// splitmix64 — the sampling hash. Deterministic across runs and
/// platforms.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Tracer {
    /// A tracer with the given sampling configuration.
    pub fn new(cfg: ObsConfig) -> Self {
        Tracer {
            cfg,
            state: Arc::new(Mutex::new(TraceState::default())),
        }
    }

    /// The tracer's configuration.
    pub fn config(&self) -> ObsConfig {
        self.cfg
    }

    /// Whether spans with this key are traced. Pure hash check — the
    /// entire cost of an unsampled command.
    pub fn sampled(&self, key: u64) -> bool {
        self.cfg.sample_shift == 0 || mix(key) & ((1 << self.cfg.sample_shift) - 1) == 0
    }

    /// Opens (or re-enters) the span `key` at its origin replica,
    /// stamping stage 0. A repeat `begin` on an open span counts a
    /// retry and keeps the original stamps (first-wins).
    pub fn begin(&self, key: u64, origin: u16, stage0_at: u64) {
        if !self.sampled(key) {
            return;
        }
        let mut st = self.state.lock().unwrap();
        if let Some(span) = st.open.get_mut(&key) {
            span.retries += 1;
            return;
        }
        if st.open.len() + st.done.len() >= MAX_SPANS {
            st.dropped += 1;
            return;
        }
        let mut stages = [None; MAX_STAGES];
        stages[0] = Some(stage0_at);
        st.open.insert(
            key,
            Span {
                key,
                origin,
                stages,
                retries: 0,
            },
        );
    }

    /// Stamps `stage` on the open span `key` (first-wins; no-op when
    /// the key is unsampled or the span was never begun).
    ///
    /// # Panics
    ///
    /// Panics if `stage >= MAX_STAGES`.
    pub fn record(&self, key: u64, stage: usize, at: u64) {
        assert!(stage < MAX_STAGES);
        if !self.sampled(key) {
            return;
        }
        let mut st = self.state.lock().unwrap();
        if let Some(span) = st.open.get_mut(&key) {
            span.stages[stage].get_or_insert(at);
        }
    }

    /// Stamps `stage` only when `replica` is the span's origin — how
    /// drivers keep commit/execute stamps on the client-facing replica
    /// while every replica applies the command.
    pub fn record_at_origin(&self, key: u64, replica: u16, stage: usize, at: u64) {
        assert!(stage < MAX_STAGES);
        if !self.sampled(key) {
            return;
        }
        let mut st = self.state.lock().unwrap();
        if let Some(span) = st.open.get_mut(&key) {
            if span.origin == replica {
                span.stages[stage].get_or_insert(at);
            }
        }
    }

    /// Completes the span: stamps `stage` (the terminal one, e.g.
    /// "replied") and moves it to the completed stream.
    pub fn complete(&self, key: u64, stage: usize, at: u64) {
        assert!(stage < MAX_STAGES);
        if !self.sampled(key) {
            return;
        }
        let mut st = self.state.lock().unwrap();
        let Some(mut span) = st.open.remove(&key) else {
            return;
        };
        span.stages[stage].get_or_insert(at);
        st.done.push(span);
    }

    /// Completed spans in completion order.
    pub fn completed(&self) -> Vec<Span> {
        self.state.lock().unwrap().done.clone()
    }

    /// Spans begun but never completed (client never got a reply —
    /// e.g. lost across a crash), in unspecified order.
    pub fn open_spans(&self) -> Vec<Span> {
        let st = self.state.lock().unwrap();
        let mut open: Vec<Span> = st.open.values().cloned().collect();
        open.sort_by_key(|s| s.key);
        open
    }

    /// Spans dropped by the retention cap.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_stamp_first_wins_and_complete() {
        let t = Tracer::new(ObsConfig::all());
        t.begin(7, 2, 100);
        t.record(7, 1, 150);
        t.record(7, 1, 175); // first-wins
        t.record_at_origin(7, 0, 2, 160); // wrong replica: no stamp
        t.record_at_origin(7, 2, 2, 180);
        t.complete(7, 6, 300);
        let done = t.completed();
        assert_eq!(done.len(), 1);
        let span = &done[0];
        assert_eq!(span.stage(0), Some(100));
        assert_eq!(span.stage(1), Some(150));
        assert_eq!(span.stage(2), Some(180));
        assert_eq!(span.stage(6), Some(300));
        assert_eq!(span.delta(0, 6), Some(200));
        assert!(t.open_spans().is_empty());
    }

    #[test]
    fn retries_reuse_the_span() {
        let t = Tracer::new(ObsConfig::all());
        t.begin(9, 0, 10);
        t.begin(9, 0, 500);
        t.complete(9, 6, 600);
        let done = t.completed();
        assert_eq!(done[0].retries, 1);
        assert_eq!(done[0].stage(0), Some(10));
    }

    #[test]
    fn sampling_is_deterministic_and_thins() {
        let t = Tracer::new(ObsConfig::all().sample_shift(3));
        let sampled: Vec<u64> = (0..1_000).filter(|&k| t.sampled(k)).collect();
        // Roughly 1 in 8, same set every time.
        assert!(
            sampled.len() > 60 && sampled.len() < 250,
            "{}",
            sampled.len()
        );
        let t2 = Tracer::new(ObsConfig::all().sample_shift(3));
        let again: Vec<u64> = (0..1_000).filter(|&k| t2.sampled(k)).collect();
        assert_eq!(sampled, again);
        // Unsampled keys never materialize spans.
        for k in 0..100u64 {
            t.begin(k, 0, 1);
            t.complete(k, 6, 2);
        }
        assert!(t.completed().iter().all(|s| t.sampled(s.key)));
    }
}
