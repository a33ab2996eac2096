//! System specification, active configuration, and epochs.

use std::fmt;

use crate::id::ReplicaId;

/// Reconfiguration epoch number (Section V of the paper).
///
/// `Epoch` is a hard state: it starts at 0 and is incremented by every
/// successful reconfiguration. Messages from older epochs are ignored by
/// replicas that have already moved on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The initial epoch.
    pub const ZERO: Epoch = Epoch(0);

    /// The epoch following this one.
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl fmt::Debug for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The membership state of a replica: the fixed system specification `Spec`
/// and the current active configuration `Config ⊆ Spec` (Table I of the
/// paper).
///
/// `Spec` is written by the system administrator before the system starts
/// and never changes; `Config` shrinks when the reconfiguration protocol
/// removes suspected replicas and grows when recovered replicas rejoin.
/// Majorities are always computed over `Spec` (`⌊|Spec|/2⌋ + 1`), which is
/// what makes reconfiguration decisions durable across overlapping
/// majorities.
///
/// # Examples
///
/// ```
/// use rsm_core::{Membership, ReplicaId};
/// let m = Membership::uniform(5);
/// assert_eq!(m.spec().len(), 5);
/// assert_eq!(m.majority(), 3);
/// assert!(m.in_config(ReplicaId::new(4)));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Membership {
    spec: Vec<ReplicaId>,
    config: Vec<ReplicaId>,
    epoch: Epoch,
}

impl Membership {
    /// Creates a membership whose `Config` initially equals `Spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is empty or contains duplicate ids.
    pub fn new(spec: Vec<ReplicaId>) -> Self {
        assert!(!spec.is_empty(), "spec must contain at least one replica");
        let mut sorted = spec.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), spec.len(), "spec contains duplicate replicas");
        Membership {
            config: spec.clone(),
            spec,
            epoch: Epoch::ZERO,
        }
    }

    /// Creates a membership of `n` replicas with ids `0..n`.
    pub fn uniform(n: u16) -> Self {
        Membership::new((0..n).map(ReplicaId::new).collect())
    }

    /// All replicas, active or failed, in the system specification.
    pub fn spec(&self) -> &[ReplicaId] {
        &self.spec
    }

    /// The replicas in the current active configuration.
    pub fn config(&self) -> &[ReplicaId] {
        &self.config
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The majority size of `Spec`: `⌊|Spec|/2⌋ + 1`.
    pub fn majority(&self) -> usize {
        self.spec.len() / 2 + 1
    }

    /// The largest value that a majority ([`Self::majority`]) of the
    /// current configuration has reached, by `reached`; 0 when no value
    /// is reached by that many. For a per-member cumulative watermark
    /// this is the watermark a majority covers — `majority_mark(..) > c`
    /// iff a majority's exclusive marks pass `c`. Allocation-free, and
    /// counts only for a value above the best found so far: the
    /// protocols call it for every slot or ack they resolve.
    pub fn majority_mark(&self, reached: impl Fn(ReplicaId) -> u64) -> u64 {
        let need = self.majority();
        let mut mark = 0;
        for &r in &self.config {
            let v = reached(r);
            if v > mark && self.config.iter().filter(|&&k| reached(k) >= v).count() >= need {
                mark = v;
            }
        }
        mark
    }

    /// Whether `r` belongs to `Spec`.
    pub fn in_spec(&self, r: ReplicaId) -> bool {
        self.spec.contains(&r)
    }

    /// Whether `r` belongs to the current configuration.
    pub fn in_config(&self, r: ReplicaId) -> bool {
        self.config.contains(&r)
    }

    /// Installs a new configuration and epoch, as decided by the
    /// reconfiguration protocol (Algorithm 3, lines 21–22).
    ///
    /// # Panics
    ///
    /// Panics if the new configuration is not a subset of `Spec` or smaller
    /// than a majority of `Spec` (the protocol requires a majority of `Spec`
    /// to be active).
    pub fn install(&mut self, epoch: Epoch, config: Vec<ReplicaId>) {
        assert!(
            config.iter().all(|r| self.in_spec(*r)),
            "new config {config:?} must be a subset of spec {:?}",
            self.spec
        );
        assert!(
            config.len() >= self.majority(),
            "new config must contain a majority of spec"
        );
        self.epoch = epoch;
        self.config = config;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_next_increments() {
        assert_eq!(Epoch::ZERO.next(), Epoch(1));
        assert_eq!(Epoch(41).next(), Epoch(42));
        assert_eq!(Epoch(7).to_string(), "e7");
    }

    #[test]
    fn uniform_membership() {
        let m = Membership::uniform(7);
        assert_eq!(m.spec().len(), 7);
        assert_eq!(m.config().len(), 7);
        assert_eq!(m.majority(), 4);
        assert_eq!(m.epoch(), Epoch::ZERO);
    }

    /// `majority_mark` against a brute-force count: the largest `v` in
    /// `0..=max` that at least a majority of the configuration reached.
    #[test]
    fn majority_mark_is_the_largest_value_a_majority_reached() {
        let mut seed = 7u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for n in 1..=7u16 {
            let mut m = Membership::uniform(n);
            if n >= 3 {
                // A configuration shrunk to its majority still counts
                // Spec's majority.
                let keep = (0..m.majority() as u16).map(ReplicaId::new).collect();
                m.install(Epoch(1), keep);
            }
            for _ in 0..200 {
                let vals: Vec<u64> = (0..n).map(|_| next() % 6).collect();
                let reached = |r: ReplicaId| vals[r.index()];
                let brute = (0..=5)
                    .filter(|&v| {
                        m.config().iter().filter(|&&k| reached(k) >= v).count() >= m.majority()
                    })
                    .max()
                    .unwrap_or(0);
                assert_eq!(
                    m.majority_mark(reached),
                    brute,
                    "{vals:?} over {:?}",
                    m.config()
                );
            }
        }
    }

    #[test]
    fn majority_of_even_spec() {
        let m = Membership::uniform(4);
        assert_eq!(m.majority(), 3);
    }

    #[test]
    fn install_shrinks_config_and_bumps_epoch() {
        let mut m = Membership::uniform(5);
        let survivors: Vec<ReplicaId> = (0..4).map(ReplicaId::new).collect();
        m.install(Epoch(1), survivors.clone());
        assert_eq!(m.config(), survivors.as_slice());
        assert_eq!(m.spec().len(), 5);
        assert_eq!(m.epoch(), Epoch(1));
        assert!(!m.in_config(ReplicaId::new(4)));
        assert!(m.in_spec(ReplicaId::new(4)));
    }

    #[test]
    #[should_panic(expected = "majority")]
    fn install_rejects_sub_majority_config() {
        let mut m = Membership::uniform(5);
        m.install(Epoch(1), vec![ReplicaId::new(0), ReplicaId::new(1)]);
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn install_rejects_foreign_replica() {
        let mut m = Membership::uniform(3);
        m.install(
            Epoch(1),
            vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(9)],
        );
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn new_rejects_duplicates() {
        Membership::new(vec![ReplicaId::new(1), ReplicaId::new(1)]);
    }
}
