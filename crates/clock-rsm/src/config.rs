//! Tuning knobs for a Clock-RSM replica.

use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::session::DEFAULT_SESSION_WINDOW;
use rsm_core::time::{Micros, MILLIS};

/// Configuration of a Clock-RSM replica.
///
/// Defaults follow the paper's EC2 deployment: the Algorithm 2 extension
/// enabled with `Δ = 5 ms`, failure detection disabled (latency
/// experiments run failure-free; enable it for fault-tolerance tests).
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
    /// Interval of the periodic clock-time broadcast (Algorithm 2), or
    /// `None` to disable the extension (making the protocol quiescent).
    pub delta_us: Option<Micros>,
    /// Failure detector timeout: a configuration member not heard from for
    /// this long is suspected and a reconfiguration removing it is
    /// triggered. `None` disables automatic reconfiguration.
    pub fd_timeout_us: Option<Micros>,
    /// Retry interval for the reconfiguration consensus proposer.
    pub synod_retry_us: Micros,
    /// Retry interval for suspend collection and state transfer.
    pub reconfig_retry_us: Micros,
    /// Checkpoint policy (shared subsystem, `rsm_core::checkpoint`):
    /// every N commits, compact the log to a state machine checkpoint and
    /// the runs still pending above it, so recovery restores the snapshot
    /// instead of replaying the whole log (Section V-B). A SUSPEND or
    /// CATCHUP asking from below the checkpoint is answered with a
    /// snapshot.
    pub checkpoint: CheckpointPolicy,
    /// Bound on the client-session dedup window
    /// (`rsm_core::session::SessionTable`): how many distinct clients can
    /// have a retry recognised as a duplicate at any time. See the
    /// session module docs for the eviction staleness contract.
    pub session_window: usize,
}

impl Default for ClockRsmConfig {
    fn default() -> Self {
        ClockRsmConfig {
            delta_us: Some(5 * MILLIS),
            fd_timeout_us: None,
            synod_retry_us: 200 * MILLIS,
            reconfig_retry_us: 200 * MILLIS,
            checkpoint: CheckpointPolicy::DISABLED,
            session_window: DEFAULT_SESSION_WINDOW,
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

    /// Sets the consensus retry interval.
    pub fn with_synod_retry_us(mut self, us: Micros) -> Self {
        self.synod_retry_us = us;
        self
    }

    /// Sets the suspend/state-transfer retry interval.
    pub fn with_reconfig_retry_us(mut self, us: Micros) -> Self {
        self.reconfig_retry_us = us;
        self
    }

    /// Sets the client-session dedup window bound.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_session_window(mut self, n: usize) -> Self {
        assert!(n > 0, "session window must be positive");
        self.session_window = n;
        self
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
    fn builders_chain() {
        let cfg = ClockRsmConfig::default()
            .with_delta_us(Some(1_000))
            .with_failure_detection(Some(10_000))
            .with_synod_retry_us(5_000)
            .with_reconfig_retry_us(7_000);
        assert_eq!(cfg.fd_timeout_us, Some(10_000));
        assert_eq!(cfg.synod_retry_us, 5_000);
        assert_eq!(cfg.reconfig_retry_us, 7_000);
    }
}
