//! Tuning knobs for a Clock-RSM replica.

use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::time::{Micros, MILLIS};

/// Configuration of a Clock-RSM replica.
///
/// Defaults follow the paper's EC2 deployment: the Algorithm 2 extension
/// enabled with `Δ = 5 ms`, failure detection disabled (latency
/// experiments run failure-free; enable it for fault-tolerance tests).
/// Reconfiguration retries its consensus, suspend collection and state
/// transfer every [`retry_us`](ClockRsmConfig::retry_us): a quarter of the
/// failure-detection timeout, the detector's own tick, or 200 ms with
/// failure detection off.
///
/// # Examples
///
/// ```
/// use clock_rsm::ClockRsmConfig;
/// let cfg = ClockRsmConfig::default()
///     .with_delta_us(Some(5_000))
///     .with_failure_detection(Some(500_000));
/// assert_eq!(cfg.delta_us, Some(5_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockRsmConfig {
    /// Δ of the periodic clock-time broadcast (Algorithm 2), or `None` to
    /// disable the extension (making the protocol quiescent). A replica
    /// sends a CLOCKTIME once Δ has passed since its last message, and
    /// checks every Δ/2, so it can stay silent for up to 1.5Δ.
    pub delta_us: Option<Micros>,
    /// Failure detector timeout: a configuration member not heard from for
    /// this long is suspected and a reconfiguration removing it is
    /// triggered. `None` disables automatic reconfiguration.
    pub fd_timeout_us: Option<Micros>,
    /// Checkpoint policy (shared subsystem, `rsm_core::checkpoint`):
    /// every N commits, compact the log to a state machine checkpoint and
    /// the runs still pending above it, so recovery restores the snapshot
    /// instead of replaying the whole log (Section V-B). A SUSPEND or
    /// CATCHUP asking from below the checkpoint is answered with a
    /// snapshot.
    pub checkpoint: CheckpointPolicy,
}

impl Default for ClockRsmConfig {
    fn default() -> Self {
        ClockRsmConfig {
            delta_us: Some(5 * MILLIS),
            fd_timeout_us: None,
            checkpoint: CheckpointPolicy::DISABLED,
        }
    }
}

impl ClockRsmConfig {
    /// Sets the clock-time broadcast interval (`None` disables Algorithm 2).
    pub fn with_delta_us(mut self, delta: Option<Micros>) -> Self {
        self.delta_us = delta;
        self
    }

    /// Enables (or disables) the failure detector with the given timeout.
    ///
    /// # Panics
    ///
    /// Panics if failure detection is enabled while the clock-time
    /// broadcast is disabled: the detector relies on `CLOCKTIME` traffic
    /// as its heartbeat.
    pub fn with_failure_detection(mut self, timeout_us: Option<Micros>) -> Self {
        if timeout_us.is_some() {
            assert!(
                self.delta_us.is_some(),
                "failure detection requires the CLOCKTIME heartbeat (delta_us)"
            );
        }
        self.fd_timeout_us = timeout_us;
        self
    }

    /// The retry interval of reconfiguration's consensus, suspend
    /// collection and state transfer: the failure detector's tick, a
    /// quarter of its timeout, or 200 ms with failure detection off.
    pub fn retry_us(&self) -> Micros {
        self.fd_timeout_us
            .map_or(200 * MILLIS, |timeout| timeout / 4)
    }

    /// Sets the checkpoint policy (interval, compaction).
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_deployment() {
        let cfg = ClockRsmConfig::default();
        assert_eq!(cfg.delta_us, Some(5_000));
        assert_eq!(cfg.fd_timeout_us, None);
    }

    #[test]
    #[should_panic(expected = "CLOCKTIME")]
    fn fd_requires_heartbeat() {
        let _ = ClockRsmConfig::default()
            .with_delta_us(None)
            .with_failure_detection(Some(1_000_000));
    }

    #[test]
    fn retries_derive_from_the_failure_detection_timeout() {
        let cfg = ClockRsmConfig::default().with_failure_detection(Some(10_000));
        assert_eq!(cfg.retry_us(), 2_500);
        assert_eq!(ClockRsmConfig::default().retry_us(), 200_000);
    }
}
