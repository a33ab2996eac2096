//! Throughput-model regressions (Figure 8): the qualitative relationships
//! the reproduction preserves, at reduced scale — the throughput
//! counterpart of `tests/paper_claims.rs`, which asserts the latency
//! shapes. `repro fig8` (`crates/bench`) prints the full-size numbers and
//! documents the divergence at small command sizes.

use harness::{run_throughput, ProtocolChoice};
use rsm_core::BatchPolicy;
use simnet::CpuModel;

fn kops(choice: ProtocolChoice, size: usize) -> f64 {
    run_throughput(
        choice,
        size,
        20,
        CpuModel::default(),
        3,
        BatchPolicy::DISABLED,
    )
    .throughput_kops
}

/// Clock-RSM and Mencius-bcast have the same communication pattern and
/// message complexity; their throughput must track each other closely at
/// every command size (the paper's first throughput claim).
#[test]
fn clock_rsm_and_mencius_track_each_other() {
    for size in [10usize, 100, 1000] {
        let c = kops(ProtocolChoice::clock_rsm(), size);
        let m = kops(ProtocolChoice::mencius(), size);
        assert!(c > 0.0 && m > 0.0);
        let ratio = c / m;
        assert!(
            (0.75..=1.35).contains(&ratio),
            "{size}B: Clock-RSM {c:.1}k vs Mencius {m:.1}k (ratio {ratio:.2})"
        );
    }
}

/// Large commands saturate the Paxos leader's byte funnel (it moves ~N
/// copies of every payload); the multi-leader protocols win clearly.
#[test]
fn large_commands_favor_multi_leader() {
    let clock = kops(ProtocolChoice::clock_rsm(), 1000);
    let paxos = kops(ProtocolChoice::paxos(0), 1000);
    let paxos_b = kops(ProtocolChoice::paxos_bcast(0), 1000);
    assert!(
        clock > paxos * 1.5,
        "Clock-RSM {clock:.1}k should clearly beat Paxos {paxos:.1}k at 1000B"
    );
    assert!(
        clock > paxos_b * 1.5,
        "Clock-RSM {clock:.1}k should clearly beat Paxos-bcast {paxos_b:.1}k at 1000B"
    );
}

/// Throughput falls monotonically with command size for every protocol
/// (per-byte CPU costs only add), and the drop from 10B to 1000B is
/// substantial for the leader-bound protocols.
#[test]
fn throughput_decreases_with_command_size() {
    for choice in [
        ProtocolChoice::clock_rsm(),
        ProtocolChoice::mencius(),
        ProtocolChoice::paxos(0),
        ProtocolChoice::paxos_bcast(0),
    ] {
        let t10 = kops(choice.clone(), 10);
        let t100 = kops(choice.clone(), 100);
        let t1000 = kops(choice.clone(), 1000);
        // Adjacent sizes can invert by a few percent (batch formation is
        // stochastic); the overall trend must hold firmly.
        assert!(
            t10 >= t100 * 0.85 && t100 >= t1000 * 0.85,
            "{}: {t10:.1} / {t100:.1} / {t1000:.1} kops not decreasing",
            choice.name()
        );
        assert!(
            t1000 < t10 * 0.85,
            "{}: kilobyte commands should cost clearly more ({t10:.1} -> {t1000:.1})",
            choice.name()
        );
    }
}

/// Closed-loop saturation: doubling the client population beyond the
/// saturation point must not increase throughput much (the CPU, not the
/// offered load, is the bottleneck — "in all cases, CPU is the
/// bottleneck").
#[test]
fn throughput_saturates_with_client_population() {
    let t20 = run_throughput(
        ProtocolChoice::clock_rsm(),
        100,
        20,
        CpuModel::default(),
        3,
        BatchPolicy::DISABLED,
    )
    .throughput_kops;
    let t60 = run_throughput(
        ProtocolChoice::clock_rsm(),
        100,
        60,
        CpuModel::default(),
        3,
        BatchPolicy::DISABLED,
    )
    .throughput_kops;
    assert!(
        t60 < t20 * 1.5,
        "tripling clients should not triple throughput at saturation: {t20:.1} -> {t60:.1}"
    );
}
