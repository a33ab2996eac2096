//! Numerical comparison over all EC2 data-center combinations
//! (Section VI-C of the paper: Figure 7 and Table IV).
//!
//! For every group of 3, 5, and 7 of the seven Table III sites, compute
//! the analytic commit latency of Clock-RSM (balanced formula) and
//! Paxos-bcast (best leader, i.e. the one minimizing the group's average)
//! at every replica, then aggregate:
//!
//! * **Figure 7** — for each group size: the average latency over *all*
//!   replicas of all groups, and the average over each group's *highest*
//!   latency replica.
//! * **Table IV** — the fraction of replicas where Clock-RSM reduces
//!   latency vs Paxos-bcast, with average absolute and relative
//!   reductions for both the winning and losing buckets.

use rsm_core::time::Micros;
use rsm_core::ReplicaId;

use crate::ec2;
use crate::model;

/// Latency comparison for one replica group.
#[derive(Debug, Clone)]
pub struct GroupComparison {
    /// Indices (into [`ec2::ALL_SITES`]) of the group members.
    pub sites: Vec<usize>,
    /// The best Paxos-bcast leader for this group.
    pub leader: ReplicaId,
    /// Per-replica Clock-RSM latency (µs), balanced-workload formula.
    pub clock_rsm: Vec<Micros>,
    /// Per-replica Paxos-bcast latency (µs) with the best leader.
    pub paxos_bcast: Vec<Micros>,
}

impl GroupComparison {
    /// Evaluates one group given its site indices.
    pub fn evaluate(sites: &[usize]) -> Self {
        let m = ec2::full_matrix().subgroup(sites);
        let leader = model::best_leader(&m, model::paxos_bcast);
        let clock_rsm = m
            .replicas()
            .map(|r| model::clock_rsm_balanced(&m, r))
            .collect();
        let paxos_bcast = m
            .replicas()
            .map(|r| model::paxos_bcast(&m, r, leader))
            .collect();
        GroupComparison {
            sites: sites.to_vec(),
            leader,
            clock_rsm,
            paxos_bcast,
        }
    }

    /// The highest per-replica latency of each protocol in this group.
    pub fn highest(&self) -> (Micros, Micros) {
        (
            *self.clock_rsm.iter().max().expect("non-empty"),
            *self.paxos_bcast.iter().max().expect("non-empty"),
        )
    }
}

/// One bucket of Table IV: replicas where Clock-RSM wins (or loses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionSummary {
    /// Fraction of replicas in this bucket (0..=1).
    pub fraction: f64,
    /// Average absolute latency reduction in milliseconds
    /// (negative when Clock-RSM is slower).
    pub absolute_ms: f64,
    /// Relative reduction: the bucket's average absolute reduction divided
    /// by the overall average Paxos-bcast latency of the group size — the
    /// paper's Table IV convention (negative when Clock-RSM is slower).
    pub relative: f64,
}

/// Aggregated results for one group size (Figure 7 bars + Table IV rows).
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Group size (3, 5, or 7).
    pub group_size: usize,
    /// Number of groups evaluated (`C(7, group_size)`).
    pub group_count: usize,
    /// Figure 7 "average all": mean latency over all replicas, ms.
    pub avg_all_clock_rsm_ms: f64,
    /// Figure 7 "average all" for Paxos-bcast, ms.
    pub avg_all_paxos_bcast_ms: f64,
    /// Figure 7 "average highest": mean of per-group maxima, ms.
    pub avg_highest_clock_rsm_ms: f64,
    /// Figure 7 "average highest" for Paxos-bcast, ms.
    pub avg_highest_paxos_bcast_ms: f64,
    /// Table IV row: replicas where Clock-RSM is strictly faster.
    pub wins: ReductionSummary,
    /// Table IV row: replicas where Clock-RSM is equal or slower.
    pub losses: ReductionSummary,
    /// The individual group evaluations.
    pub groups: Vec<GroupComparison>,
}

/// All `k`-subsets of `0..n`, in lexicographic order.
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..n {
            current.push(i);
            rec(i + 1, n, k, current, out);
            current.pop();
        }
    }
    rec(0, n, k, &mut current, &mut out);
    out
}

/// Runs the full numerical sweep for one group size.
pub fn sweep(group_size: usize) -> SweepResult {
    assert!(
        (1..=7).contains(&group_size),
        "group size must be within the seven Table III sites"
    );
    let groups: Vec<GroupComparison> = combinations(7, group_size)
        .iter()
        .map(|g| GroupComparison::evaluate(g))
        .collect();

    let mut all_clock = Vec::new();
    let mut all_paxos = Vec::new();
    let mut highest_clock = Vec::new();
    let mut highest_paxos = Vec::new();
    for g in &groups {
        all_clock.extend_from_slice(&g.clock_rsm);
        all_paxos.extend_from_slice(&g.paxos_bcast);
        let (hc, hp) = g.highest();
        highest_clock.push(hc);
        highest_paxos.push(hp);
    }

    let mean_ms = |v: &[Micros]| v.iter().sum::<Micros>() as f64 / v.len() as f64 / 1_000.0;

    // Table IV buckets.
    let total = all_clock.len();
    let mut win_abs = Vec::new();
    let mut loss_abs = Vec::new();
    for (&c, &p) in all_clock.iter().zip(&all_paxos) {
        let abs_ms = (p as f64 - c as f64) / 1_000.0;
        if c < p {
            win_abs.push(abs_ms);
        } else {
            loss_abs.push(abs_ms);
        }
    }
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let avg_all_paxos_bcast_ms = mean_ms(&all_paxos);

    SweepResult {
        group_size,
        group_count: groups.len(),
        avg_all_clock_rsm_ms: mean_ms(&all_clock),
        avg_all_paxos_bcast_ms,
        avg_highest_clock_rsm_ms: mean_ms(&highest_clock),
        avg_highest_paxos_bcast_ms: mean_ms(&highest_paxos),
        wins: ReductionSummary {
            fraction: win_abs.len() as f64 / total as f64,
            absolute_ms: avg(&win_abs),
            relative: avg(&win_abs) / avg_all_paxos_bcast_ms,
        },
        losses: ReductionSummary {
            fraction: loss_abs.len() as f64 / total as f64,
            absolute_ms: avg(&loss_abs),
            relative: avg(&loss_abs) / avg_all_paxos_bcast_ms,
        },
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_counts() {
        assert_eq!(combinations(7, 3).len(), 35);
        assert_eq!(combinations(7, 5).len(), 21);
        assert_eq!(combinations(7, 7).len(), 1);
        assert_eq!(combinations(4, 2).len(), 6);
    }

    #[test]
    fn combinations_are_sorted_and_unique() {
        let cs = combinations(7, 3);
        for c in &cs {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
        let mut dedup = cs.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), cs.len());
    }

    /// Table IV, 5-replica row: 68.6% of replicas win by 31.9 ms (15.2%),
    /// 31.4% lose by 30.6 ms (14.6%). Pure arithmetic from Table III, so
    /// we should land on the paper's numbers almost exactly.
    #[test]
    fn table_iv_five_replica_row_matches_paper() {
        let s = sweep(5);
        assert_eq!(s.group_count, 21);
        assert!(
            (s.wins.fraction * 100.0 - 68.6).abs() < 1.5,
            "win fraction {}",
            s.wins.fraction * 100.0
        );
        assert!(
            (s.wins.absolute_ms - 31.9).abs() < 2.5,
            "win abs {}",
            s.wins.absolute_ms
        );
        assert!(
            (s.wins.relative * 100.0 - 15.2).abs() < 2.5,
            "win rel {}",
            s.wins.relative * 100.0
        );
        assert!(
            (s.losses.absolute_ms + 30.6).abs() < 2.5,
            "loss abs {}",
            s.losses.absolute_ms
        );
    }

    /// Table IV, 3-replica row: Clock-RSM never wins; loses by ~9.9 ms
    /// (~6.2%) on average.
    #[test]
    fn table_iv_three_replica_row_matches_paper() {
        let s = sweep(3);
        assert_eq!(s.group_count, 35);
        assert!(
            s.wins.fraction < 0.03,
            "3-replica groups should all favor Paxos-bcast, got {}",
            s.wins.fraction
        );
        assert!(
            (s.losses.absolute_ms + 9.9).abs() < 2.0,
            "loss abs {}",
            s.losses.absolute_ms
        );
        assert!(
            (s.losses.relative * 100.0 + 6.2).abs() < 1.5,
            "loss rel {}",
            s.losses.relative * 100.0
        );
        // Implied denominator cross-check: the overall average Paxos-bcast
        // latency of three-replica groups is ~160 ms.
        assert!(
            (s.avg_all_paxos_bcast_ms - 159.7).abs() < 5.0,
            "avg paxos {}",
            s.avg_all_paxos_bcast_ms
        );
    }

    /// Table IV, 7-replica row: 85.7% win by ~50.2 ms (~21.5%).
    #[test]
    fn table_iv_seven_replica_row_matches_paper() {
        let s = sweep(7);
        assert_eq!(s.group_count, 1);
        assert!(
            (s.wins.fraction * 100.0 - 85.7).abs() < 1.0,
            "win fraction {}",
            s.wins.fraction * 100.0
        );
        assert!(
            (s.wins.absolute_ms - 50.2).abs() < 2.5,
            "win abs {}",
            s.wins.absolute_ms
        );
        assert!(
            (s.losses.absolute_ms + 39.4).abs() < 1.0,
            "loss abs {}",
            s.losses.absolute_ms
        );
    }

    /// Figure 7 shape: Clock-RSM wins both metrics at 5 and 7 replicas,
    /// loses slightly at 3; the highest-latency gap exceeds the
    /// average-latency gap.
    #[test]
    fn figure_7_shape() {
        let s3 = sweep(3);
        let s5 = sweep(5);
        let s7 = sweep(7);
        assert!(s3.avg_all_clock_rsm_ms > s3.avg_all_paxos_bcast_ms);
        assert!(s5.avg_all_clock_rsm_ms < s5.avg_all_paxos_bcast_ms);
        assert!(s7.avg_all_clock_rsm_ms < s7.avg_all_paxos_bcast_ms);
        assert!(s5.avg_highest_clock_rsm_ms < s5.avg_highest_paxos_bcast_ms);
        assert!(s7.avg_highest_clock_rsm_ms < s7.avg_highest_paxos_bcast_ms);
        let gap_all = s5.avg_all_paxos_bcast_ms - s5.avg_all_clock_rsm_ms;
        let gap_highest = s5.avg_highest_paxos_bcast_ms - s5.avg_highest_clock_rsm_ms;
        assert!(
            gap_highest > gap_all,
            "improvement for the highest-latency replica should be larger \
             ({gap_highest:.1} vs {gap_all:.1})"
        );
    }
}
