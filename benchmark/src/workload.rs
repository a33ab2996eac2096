//! The four workloads and the three protocols they run.

use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::matrix::LatencyMatrix;
use rsm_runtime::ClusterTransport;

/// One-way delay of the local-cluster workloads, in microseconds (the
/// paper's "typical RTT in an EC2 data center is about 0.6 ms").
const LOCAL_ONE_WAY_US: u64 = 250;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Three replicas, 250 µs one way between any two.
    Local3,
    /// CA, VA, IR, JP, SG with the paper's Table III delays, unscaled.
    Geo5,
}

impl Topology {
    pub fn matrix(self) -> LatencyMatrix {
        match self {
            Topology::Local3 => LatencyMatrix::uniform(3, LOCAL_ONE_WAY_US),
            Topology::Geo5 => analysis::ec2::five_site_deployment().1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: Topology,
    pub transport: ClusterTransport,
    pub load: Load,
}

/// What the generator's client threads do.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub value_bytes: usize,
    /// Distinct keys each client thread's stream draws from.
    pub keys: u64,
    /// Commands a client thread keeps outstanding: it submits
    /// `window - 1` without waiting, then blocks on the last.
    pub window: usize,
    /// Gets per thousand operations (only with `window == 1`).
    pub read_permille: u64,
    /// Seconds of load before the measured window opens.
    pub warmup_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sat_inproc_small",
        why: "CPU-saturated 16 B Puts in process: node loop, protocol step and kvstore apply; \
              never encodes a frame, so it bypasses wire and transport",
        topology: Topology::Local3,
        transport: ClusterTransport::InProcess,
        load: Load {
            value_bytes: 16,
            keys: 2048,
            window: 1024,
            read_permille: 0,
            warmup_s: 1.0,
        },
    },
    Workload {
        name: "sat_tcp_1k",
        why: "the same load with 1 KiB values over loopback TCP: every message is encoded, \
              checksummed, framed, written, read and decoded",
        topology: Topology::Local3,
        transport: ClusterTransport::Tcp,
        load: Load {
            value_bytes: 1024,
            keys: 2048,
            window: 1024,
            read_permille: 0,
            warmup_s: 1.0,
        },
    },
    Workload {
        name: "light_readmix",
        why: "one command at a time, 90% local reads: unloaded wake-up chain, message hops \
              and the stable-timestamp read path, which saturation hides",
        topology: Topology::Local3,
        transport: ClusterTransport::InProcess,
        load: Load {
            value_bytes: 16,
            keys: 1024,
            window: 1,
            read_permille: 900,
            warmup_s: 0.5,
        },
    },
    Workload {
        name: "geo5",
        why: "the paper's five-site EC2 deployment, one Put at a time: delay-dominated, so \
              CPU work must not move it while message-pattern, timer and clock changes do",
        topology: Topology::Geo5,
        transport: ClusterTransport::InProcess,
        load: Load {
            value_bytes: 16,
            keys: 1024,
            window: 1,
            read_permille: 0,
            warmup_s: 0.5,
        },
    },
];

/// Every protocol instance checkpoints and compacts its log. Without
/// compaction the in-memory log grows without bound (4 GB resident in
/// 13 s at 1 KiB values) and throughput falls as it does; with a
/// checkpoint every 65 536 commands the resident set stays flat.
pub fn checkpoint_policy() -> CheckpointPolicy {
    CheckpointPolicy::every(65_536).with_compaction(true)
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    ClockRsm,
    /// Paxos-bcast with a fixed leader at replica 0 (CA in `geo5`).
    Paxos,
    /// Mencius-bcast.
    Mencius,
}

impl Proto {
    pub const ALL: [Proto; 3] = [Proto::ClockRsm, Proto::Paxos, Proto::Mencius];

    /// The prefix of this protocol's metric names.
    pub fn name(self) -> &'static str {
        match self {
            Proto::ClockRsm => "clock_rsm",
            Proto::Paxos => "paxos",
            Proto::Mencius => "mencius",
        }
    }

    pub fn find(name: &str) -> Option<Proto> {
        Proto::ALL.into_iter().find(|p| p.name() == name)
    }
}
