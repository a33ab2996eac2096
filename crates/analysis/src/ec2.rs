//! The paper's measured EC2 inter-data-center latencies (Table III).

use rsm_core::matrix::LatencyMatrix;

/// The seven Amazon EC2 data centers of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // site abbreviations are the documentation
pub enum Site {
    CA,
    VA,
    IR,
    JP,
    SG,
    AU,
    BR,
}

/// All seven sites in Table III order.
pub const ALL_SITES: [Site; 7] = [
    Site::CA,
    Site::VA,
    Site::IR,
    Site::JP,
    Site::SG,
    Site::AU,
    Site::BR,
];

impl Site {
    /// The site's row/column index in the full Table III matrix.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The data-center name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Site::CA => "CA",
            Site::VA => "VA",
            Site::IR => "IR",
            Site::JP => "JP",
            Site::SG => "SG",
            Site::AU => "AU",
            Site::BR => "BR",
        }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Average round-trip latencies in milliseconds between EC2 data centers,
/// exactly as reported in Table III of the paper (symmetric, zero
/// diagonal). Order: CA, VA, IR, JP, SG, AU, BR.
#[rustfmt::skip] // keep the hand-aligned Table III layout
pub const RTT_MS: [[f64; 7]; 7] = [
    //        CA     VA     IR     JP     SG     AU     BR
    /*CA*/ [0.0, 83.0, 170.0, 125.0, 171.0, 187.0, 212.0],
    /*VA*/ [83.0, 0.0, 101.0, 215.0, 254.0, 220.0, 137.0],
    /*IR*/ [170.0, 101.0, 0.0, 280.0, 216.0, 305.0, 216.0],
    /*JP*/ [125.0, 215.0, 280.0, 0.0, 77.0, 129.0, 368.0],
    /*SG*/ [171.0, 254.0, 216.0, 77.0, 0.0, 188.0, 369.0],
    /*AU*/ [187.0, 220.0, 305.0, 129.0, 188.0, 0.0, 349.0],
    /*BR*/ [212.0, 137.0, 216.0, 368.0, 369.0, 349.0, 0.0],
];

/// The full seven-site latency matrix of Table III.
pub fn full_matrix() -> LatencyMatrix {
    LatencyMatrix::from_rtt_ms(&RTT_MS.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
}

/// A latency matrix restricted to the given sites, in the given order
/// (replica `i` of the result is `sites[i]`).
pub fn matrix_for(sites: &[Site]) -> LatencyMatrix {
    let idx: Vec<usize> = sites.iter().map(|s| s.index()).collect();
    full_matrix().subgroup(&idx)
}

/// The five-site deployment used by Figures 1, 3, 5, and 6:
/// CA, VA, IR, JP, SG.
pub fn five_site_deployment() -> (Vec<Site>, LatencyMatrix) {
    let sites = vec![Site::CA, Site::VA, Site::IR, Site::JP, Site::SG];
    let m = matrix_for(&sites);
    (sites, m)
}

/// The three-site deployment used by Figures 2 and 4: CA, VA, IR.
pub fn three_site_deployment() -> (Vec<Site>, LatencyMatrix) {
    let sites = vec![Site::CA, Site::VA, Site::IR];
    let m = matrix_for(&sites);
    (sites, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_core::ReplicaId;

    #[test]
    fn matrix_matches_table_iii_spot_checks() {
        let m = full_matrix();
        // One-way latency is half the reported RTT, in microseconds.
        let ca = ReplicaId::new(Site::CA.index() as u16);
        let va = ReplicaId::new(Site::VA.index() as u16);
        let ir = ReplicaId::new(Site::IR.index() as u16);
        let jp = ReplicaId::new(Site::JP.index() as u16);
        let br = ReplicaId::new(Site::BR.index() as u16);
        assert_eq!(2 * m.one_way(ca, va), 83_000);
        assert_eq!(2 * m.one_way(ir, jp), 280_000);
        assert_eq!(2 * m.one_way(jp, br), 368_000);
        assert_eq!(m.one_way(ca, ir), 85_000);
    }

    #[test]
    fn subgroup_preserves_pairwise_latencies() {
        let (sites, m) = five_site_deployment();
        assert_eq!(sites.len(), 5);
        // VA is replica 1, JP replica 3 in the subgroup: RTT 215 ms.
        assert_eq!(2 * m.one_way(ReplicaId::new(1), ReplicaId::new(3)), 215_000);
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let m = full_matrix();
        for i in m.replicas() {
            assert_eq!(m.one_way(i, i), 0);
            for j in m.replicas() {
                assert_eq!(m.one_way(i, j), m.one_way(j, i));
            }
        }
    }

    #[test]
    fn site_names_roundtrip() {
        for s in ALL_SITES {
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(Site::BR.index(), 6);
    }
}
