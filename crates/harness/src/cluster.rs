//! Protocol selection for experiments.

use clock_rsm::ClockRsmConfig;
use rsm_core::id::ReplicaId;
use rsm_core::lease::LeaseConfig;

/// Which replication protocol an experiment runs, with its parameters.
///
/// # Examples
///
/// ```
/// use harness::ProtocolChoice;
/// let p = ProtocolChoice::paxos_bcast(1);
/// assert_eq!(p.name(), "Paxos-bcast");
/// ```
#[derive(Debug, Clone)]
pub enum ProtocolChoice {
    /// Clock-RSM with the given replica configuration.
    ClockRsm {
        /// Replica tuning (Δ, failure detection, retries).
        cfg: ClockRsmConfig,
    },
    /// Plain Multi-Paxos with a designated leader.
    Paxos {
        /// The initial leader.
        leader: ReplicaId,
        /// Lease-based fail-over timing ([`LeaseConfig::DISABLED`] =
        /// the paper's fixed-leader setup).
        failover: LeaseConfig,
    },
    /// Paxos with broadcast phase 2b.
    PaxosBcast {
        /// The initial leader.
        leader: ReplicaId,
        /// Lease-based fail-over timing ([`LeaseConfig::DISABLED`] =
        /// the paper's fixed-leader setup).
        failover: LeaseConfig,
    },
    /// Mencius with broadcast acknowledgements. It has no knob of its
    /// own: an owner answers catch-up requests from its stable log, so
    /// the experiment's checkpoint policy alone decides how far back
    /// those runs reach before a snapshot answers instead.
    MenciusBcast,
}

impl ProtocolChoice {
    /// Clock-RSM with the paper's defaults (Δ = 5 ms, no failure
    /// detection).
    pub fn clock_rsm() -> Self {
        ProtocolChoice::ClockRsm {
            cfg: ClockRsmConfig::default(),
        }
    }

    /// Clock-RSM with a custom configuration.
    pub fn clock_rsm_with(cfg: ClockRsmConfig) -> Self {
        ProtocolChoice::ClockRsm { cfg }
    }

    /// Plain Paxos with a fixed (never failing over) leader at replica
    /// index `leader`.
    pub fn paxos(leader: u16) -> Self {
        ProtocolChoice::Paxos {
            leader: ReplicaId::new(leader),
            failover: LeaseConfig::DISABLED,
        }
    }

    /// Paxos-bcast with a fixed leader at replica index `leader`.
    pub fn paxos_bcast(leader: u16) -> Self {
        ProtocolChoice::PaxosBcast {
            leader: ReplicaId::new(leader),
            failover: LeaseConfig::DISABLED,
        }
    }

    /// Plain Paxos with lease-based fail-over: the initial leader at
    /// `leader`, elections per `failover` when it goes silent.
    pub fn paxos_failover(leader: u16, failover: LeaseConfig) -> Self {
        ProtocolChoice::Paxos {
            leader: ReplicaId::new(leader),
            failover,
        }
    }

    /// Paxos-bcast with lease-based fail-over.
    pub fn paxos_bcast_failover(leader: u16, failover: LeaseConfig) -> Self {
        ProtocolChoice::PaxosBcast {
            leader: ReplicaId::new(leader),
            failover,
        }
    }

    /// Mencius-bcast.
    pub fn mencius() -> Self {
        ProtocolChoice::MenciusBcast
    }

    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolChoice::ClockRsm { .. } => "Clock-RSM",
            ProtocolChoice::Paxos { .. } => "Paxos",
            ProtocolChoice::PaxosBcast { .. } => "Paxos-bcast",
            ProtocolChoice::MenciusBcast => "Mencius-bcast",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(ProtocolChoice::clock_rsm().name(), "Clock-RSM");
        assert_eq!(ProtocolChoice::paxos(0).name(), "Paxos");
        assert_eq!(ProtocolChoice::paxos_bcast(0).name(), "Paxos-bcast");
        assert_eq!(ProtocolChoice::mencius().name(), "Mencius-bcast");
    }

    #[test]
    fn leaders_are_recorded() {
        match ProtocolChoice::paxos_bcast(3) {
            ProtocolChoice::PaxosBcast { leader, failover } => {
                assert_eq!(leader, ReplicaId::new(3));
                assert!(!failover.enabled(), "fixed leader by default");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn failover_constructors_carry_the_lease() {
        let lease = LeaseConfig::after(400_000);
        match ProtocolChoice::paxos_failover(1, lease) {
            ProtocolChoice::Paxos { leader, failover } => {
                assert_eq!(leader, ReplicaId::new(1));
                assert_eq!(failover, lease);
            }
            _ => unreachable!(),
        }
        assert_eq!(
            ProtocolChoice::paxos_bcast_failover(0, lease).name(),
            "Paxos-bcast"
        );
    }
}
