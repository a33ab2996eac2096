//! Inter-replica latency matrices.

use std::fmt;

use crate::id::ReplicaId;
use crate::time::{Micros, MILLIS};

/// A symmetric matrix of **one-way** message latencies between replicas,
/// in microseconds.
///
/// This is `d(r_i, r_j)` from Section IV of the paper: the paper assumes
/// symmetric network latency (`d(r_i, r_j) = d(r_j, r_i)`) and measures
/// round-trip times between EC2 data centers (Table III); the matrix stores
/// half of each RTT. `d(r_i, r_i)` is zero.
///
/// The same type feeds both the analytical model (`analysis` crate,
/// Table II formulas) and the discrete-event simulator (`simnet`), so the
/// two can be cross-checked against each other in tests.
///
/// # Examples
///
/// ```
/// use rsm_core::{LatencyMatrix, ReplicaId};
/// // Three sites; RTTs in ms: 0-1: 80, 0-2: 160, 1-2: 100.
/// let m = LatencyMatrix::from_rtt_ms(&[
///     vec![0.0, 80.0, 160.0],
///     vec![80.0, 0.0, 100.0],
///     vec![160.0, 100.0, 0.0],
/// ]);
/// let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));
/// assert_eq!(m.one_way(a, b), 40_000); // half of 80 ms, in µs
/// assert_eq!(m.one_way(a, a), 0);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyMatrix {
    /// `one_way[i][j]` = one-way latency from replica `i` to replica `j`.
    one_way: Vec<Vec<Micros>>,
}

impl LatencyMatrix {
    /// Builds a matrix from **one-way** latencies in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, has a non-zero diagonal, or is
    /// asymmetric (the paper's model assumes symmetric latencies).
    pub fn from_one_way_micros(one_way: Vec<Vec<Micros>>) -> Self {
        let n = one_way.len();
        assert!(n > 0, "latency matrix must be non-empty");
        for (i, row) in one_way.iter().enumerate() {
            assert_eq!(row.len(), n, "latency matrix must be square");
            assert_eq!(row[i], 0, "diagonal must be zero");
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, one_way[j][i], "latency matrix must be symmetric");
            }
        }
        LatencyMatrix { one_way }
    }

    /// Builds a matrix from **round-trip** times in milliseconds, the format
    /// of Table III of the paper. One-way latency is RTT/2.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`from_one_way_micros`]
    /// (checked after conversion).
    ///
    /// [`from_one_way_micros`]: LatencyMatrix::from_one_way_micros
    pub fn from_rtt_ms(rtt_ms: &[Vec<f64>]) -> Self {
        let one_way = rtt_ms
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&rtt| (rtt * MILLIS as f64 / 2.0).round() as Micros)
                    .collect()
            })
            .collect();
        Self::from_one_way_micros(one_way)
    }

    /// Builds a uniform matrix where every distinct pair is `one_way_us`
    /// apart. Handy for tests and for the "uniform latency" thought
    /// experiment of Section IV-D.
    pub fn uniform(n: usize, one_way_us: Micros) -> Self {
        let one_way = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if i == j { 0 } else { one_way_us })
                    .collect()
            })
            .collect();
        Self::from_one_way_micros(one_way)
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.one_way.len()
    }

    /// Whether the matrix is empty (never true for a constructed matrix).
    pub fn is_empty(&self) -> bool {
        self.one_way.is_empty()
    }

    /// One-way latency `d(from, to)` in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if either replica index is out of range.
    pub fn one_way(&self, from: ReplicaId, to: ReplicaId) -> Micros {
        self.one_way[from.index()][to.index()]
    }

    /// All one-way latencies from `from` (including the zero to itself),
    /// i.e. the multiset `{d(from, r_k) | ∀ r_k ∈ R}` of Section IV.
    pub fn distances_from(&self, from: ReplicaId) -> Vec<Micros> {
        self.one_way[from.index()].clone()
    }

    /// `median({d(from, r_k) | ∀ r_k ∈ R})` as the paper uses it: the
    /// distance to the majority-th closest replica, counting `from` itself
    /// at distance zero. For `n` replicas this is the element at (0-based)
    /// index `n/2` of the sorted distance list — the true median for odd
    /// `n`, the upper median for even `n`, matching `⌊n/2⌋ + 1` majorities.
    pub fn median_from(&self, from: ReplicaId) -> Micros {
        let mut d = self.distances_from(from);
        d.sort_unstable();
        d[d.len() / 2]
    }

    /// `max({d(from, r_k) | ∀ r_k ∈ R})`: distance to the farthest replica.
    pub fn max_from(&self, from: ReplicaId) -> Micros {
        *self.one_way[from.index()].iter().max().expect("non-empty")
    }

    /// `median({d(via, r_k) + d(r_k, to) | ∀ r_k ∈ R})`: the two-hop
    /// majority latency from `via` to `to` through intermediate replicas.
    /// Used by the prefix-replication term of Clock-RSM and the non-leader
    /// latency of Paxos-bcast (Table II).
    pub fn median_two_hop(&self, via: ReplicaId, to: ReplicaId) -> Micros {
        let n = self.len();
        let mut d: Vec<Micros> = (0..n)
            .map(|k| {
                let rk = ReplicaId::new(k as u16);
                self.one_way(via, rk) + self.one_way(rk, to)
            })
            .collect();
        d.sort_unstable();
        d[n / 2]
    }

    /// Restricts the matrix to the given replicas, renumbering them densely
    /// in the given order. Used by the numerical evaluation (Figure 7,
    /// Table IV) to form every 3/5/7-site subgroup of the EC2 matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or duplicated.
    pub fn subgroup(&self, sites: &[usize]) -> LatencyMatrix {
        let mut seen = vec![false; self.len()];
        for &s in sites {
            assert!(s < self.len(), "site index {s} out of range");
            assert!(!seen[s], "site index {s} duplicated");
            seen[s] = true;
        }
        let one_way = sites
            .iter()
            .map(|&i| sites.iter().map(|&j| self.one_way[i][j]).collect())
            .collect();
        LatencyMatrix { one_way }
    }

    /// Iterates over all replica ids covered by this matrix.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.len() as u16).map(ReplicaId::new)
    }
}

impl fmt::Debug for LatencyMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "LatencyMatrix (one-way ms):")?;
        for row in &self.one_way {
            for d in row {
                write!(f, "{:>7.1}", *d as f64 / MILLIS as f64)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_site() -> LatencyMatrix {
        LatencyMatrix::from_rtt_ms(&[
            vec![0.0, 80.0, 160.0],
            vec![80.0, 0.0, 100.0],
            vec![160.0, 100.0, 0.0],
        ])
    }

    #[test]
    fn rtt_halved_to_one_way() {
        let m = three_site();
        assert_eq!(m.one_way(ReplicaId::new(0), ReplicaId::new(2)), 80_000);
        assert_eq!(2 * m.one_way(ReplicaId::new(0), ReplicaId::new(2)), 160_000);
    }

    #[test]
    fn median_counts_self_at_zero() {
        let m = three_site();
        // Distances from r0: [0, 40ms, 80ms] -> median (index 1) = 40ms.
        assert_eq!(m.median_from(ReplicaId::new(0)), 40_000);
        // From r1: [40ms, 0, 50ms] sorted [0, 40, 50] -> 40ms.
        assert_eq!(m.median_from(ReplicaId::new(1)), 40_000);
    }

    #[test]
    fn max_from_is_farthest() {
        let m = three_site();
        assert_eq!(m.max_from(ReplicaId::new(0)), 80_000);
        assert_eq!(m.max_from(ReplicaId::new(1)), 50_000);
    }

    #[test]
    fn two_hop_median() {
        let m = three_site();
        let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
        // via r0 -> k -> r1 for k in {0,1,2}: [0+40, 40+0, 80+50] = [40,40,130]
        // sorted [40,40,130], index 1 -> 40ms.
        assert_eq!(m.median_two_hop(r0, r1), 40_000);
    }

    #[test]
    fn uniform_matrix() {
        let m = LatencyMatrix::uniform(5, 10_000);
        assert_eq!(m.len(), 5);
        assert_eq!(m.median_from(ReplicaId::new(2)), 10_000);
        assert_eq!(m.max_from(ReplicaId::new(2)), 10_000);
    }

    #[test]
    fn subgroup_renumbers() {
        let m = three_site();
        let s = m.subgroup(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.one_way(ReplicaId::new(0), ReplicaId::new(1)), 80_000);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_rejected() {
        LatencyMatrix::from_one_way_micros(vec![vec![0, 1], vec![2, 0]]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        LatencyMatrix::from_one_way_micros(vec![vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "duplicated")]
    fn subgroup_rejects_duplicates() {
        three_site().subgroup(&[0, 0]);
    }
}
