//! Leader-lease timing and failure detection for leader-based protocols.
//!
//! A leader-based protocol (the Multi-Paxos baseline) keeps exactly one
//! replica driving the data plane. Liveness across a leader crash needs
//! one timing decision that is policy, not protocol: how long followers
//! wait for leader traffic before suspecting it ([`LeaseConfig::timeout_us`]).
//! Every other interval derives from it, such as how often an idle leader
//! proves it is alive ([`LeaseConfig::heartbeat_us`]). This module holds
//! that surface so protocols and the experiment harness share one
//! vocabulary, mirroring how
//! [`CheckpointPolicy`](crate::checkpoint::CheckpointPolicy) factors
//! checkpoint timing out of the protocols.
//!
//! **Safety never depends on these clocks.** The lease is purely a
//! liveness mechanism: an expired lease triggers a ballot-based election,
//! and it is the ballots — not the lease — that fence a deposed leader
//! (its stale-ballot traffic is rejected by any acceptor that promised a
//! higher ballot). A lease firing too early merely costs an unnecessary
//! election; it can never cost agreement. This is the paper's central
//! design rule (Section II): clocks may only affect latency.

use crate::time::Micros;

/// Timing policy for leader leases and elections.
///
/// # Examples
///
/// ```
/// use rsm_core::lease::LeaseConfig;
/// let lease = LeaseConfig::after(400_000);
/// assert!(lease.enabled());
/// assert_eq!(lease.heartbeat_us(), 100_000);
/// assert_eq!(lease.election_retry_us(), 200_000);
/// assert!(!LeaseConfig::DISABLED.enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// A follower that has not heard from the leader's regime for this
    /// long suspects it and starts an election. Zero disables fail-over
    /// entirely (the protocol behaves as a fixed-leader deployment).
    pub timeout_us: Micros,
    /// Pre-vote (opt-in): before bumping its ballot, a would-be candidate
    /// probes whether a majority would currently promise it. Peers answer
    /// from their own lease state without mutating anything, so a flapping
    /// replica — one isolated behind a partition, or with a runaway clock
    /// — can no longer disrupt a healthy leader by forcing real ballots
    /// ever higher while partitioned and deposing the leader on heal.
    pub pre_vote: bool,
}

impl LeaseConfig {
    /// Fail-over off: the configured leader is assumed stable, as in the
    /// paper's failure-free evaluation.
    pub const DISABLED: LeaseConfig = LeaseConfig {
        timeout_us: 0,
        pre_vote: false,
    };

    /// A lease expiring after `timeout_us` of leader silence; every
    /// other interval derives from it.
    ///
    /// # Panics
    ///
    /// Panics if `timeout_us` is below 4 µs (the derived heartbeat would
    /// be zero, which means "disabled").
    pub fn after(timeout_us: Micros) -> Self {
        assert!(timeout_us >= 4, "lease timeout too small to derive ticks");
        LeaseConfig {
            timeout_us,
            pre_vote: false,
        }
    }

    /// How often the leader broadcasts a heartbeat when the data plane is
    /// otherwise idle (also the tick interval of the follower-side
    /// detector): a quarter of the timeout.
    pub fn heartbeat_us(&self) -> Micros {
        self.timeout_us / 4
    }

    /// How long a candidate waits for its election to conclude before
    /// retrying at a higher ballot round (dueling-candidate resolution):
    /// half the timeout.
    pub fn election_retry_us(&self) -> Micros {
        self.timeout_us / 2
    }

    /// Enables the pre-vote phase: candidates probe electability before
    /// bumping their ballot (see the field docs).
    pub fn with_pre_vote(mut self) -> Self {
        self.pre_vote = true;
        self
    }

    /// Whether fail-over is configured at all.
    pub fn enabled(&self) -> bool {
        self.timeout_us > 0
    }

    /// Deterministic per-replica stagger added to the suspicion timeout so
    /// followers do not all turn candidate in the same tick (which would
    /// duel every election). Lower replica indices fire first.
    pub fn stagger_us(&self, replica_index: usize) -> Micros {
        self.timeout_us + replica_index as Micros * self.heartbeat_us()
    }
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig::DISABLED
    }
}

/// A follower's view of the leader lease: the last instant the current
/// leader regime proved itself (data-plane traffic, heartbeat, or a
/// granted election promise).
///
/// # Examples
///
/// ```
/// use rsm_core::lease::Lease;
/// let mut lease = Lease::new(1_000);
/// assert!(!lease.expired(1_200, 400));
/// assert!(lease.expired(1_500, 400));
/// lease.renew(1_450);
/// assert!(!lease.expired(1_500, 400));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    renewed_at: Micros,
}

impl Lease {
    /// A lease granted at `now`.
    pub fn new(now: Micros) -> Self {
        Lease { renewed_at: now }
    }

    /// Extends the lease: the leader regime was heard from at `now`.
    /// Renewals never move the lease backwards (a stale clock read
    /// cannot shorten it).
    pub fn renew(&mut self, now: Micros) {
        self.renewed_at = self.renewed_at.max(now);
    }

    /// Whether more than `after` microseconds of silence have passed.
    pub fn expired(&self, now: Micros, after: Micros) -> bool {
        now.saturating_sub(self.renewed_at) > after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_reports_disabled() {
        assert!(!LeaseConfig::DISABLED.enabled());
        assert!(!LeaseConfig::default().enabled());
    }

    #[test]
    fn after_derives_ticks() {
        let lease = LeaseConfig::after(400);
        assert_eq!(lease.heartbeat_us(), 100);
        assert_eq!(lease.election_retry_us(), 200);
        assert!(lease.enabled());
    }

    #[test]
    fn stagger_orders_replicas() {
        let lease = LeaseConfig::after(400);
        assert_eq!(lease.stagger_us(0), 400);
        assert!(lease.stagger_us(1) < lease.stagger_us(2));
    }

    #[test]
    fn lease_expiry_is_silence_based() {
        let mut lease = Lease::new(0);
        assert!(
            !lease.expired(400, 400),
            "exactly at the bound is not past it"
        );
        assert!(lease.expired(401, 400));
        lease.renew(300);
        assert!(!lease.expired(700, 400));
        // Renewals never regress.
        lease.renew(100);
        assert_eq!(lease.renewed_at, 300);
    }
}
