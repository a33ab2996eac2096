//! Failure handling demo: crash a replica under load, watch the failure
//! detector and reconfiguration protocol (Algorithm 3) remove it, keep
//! serving from the surviving majority, then bring it back and watch it
//! recover from its log and rejoin.
//!
//! Run with: `cargo run --example failover`

use clock_rsm::ClockRsmConfig;
use harness::workload::Fault;
use harness::{run_latency, ExperimentConfig, ProtocolChoice};
use rsm_core::time::MILLIS;
use rsm_core::{LatencyMatrix, ReplicaId};

fn main() {
    let crash_at = 2_000 * MILLIS;
    let recover_at = 5_000 * MILLIS;

    println!("Three replicas, 20 ms apart; clients at sites 0 and 1.");
    println!("t=2.0s  crash replica 2");
    println!("t=5.0s  restart replica 2 (recovers from log, rejoins)\n");

    let rsm_cfg = ClockRsmConfig::default()
        .with_delta_us(Some(50 * MILLIS))
        .with_failure_detection(Some(400 * MILLIS));

    let cfg = ExperimentConfig::new(LatencyMatrix::uniform(3, 20_000))
        .clients_per_site(3)
        .think_max_us(40 * MILLIS)
        .warmup_us(0)
        .duration_us(10_000 * MILLIS)
        .active_sites(vec![0, 1])
        .fault(crash_at, Fault::Crash(ReplicaId::new(2)))
        .fault(recover_at, Fault::Recover(ReplicaId::new(2)));

    let r = run_latency(ProtocolChoice::clock_rsm_with(rsm_cfg), &cfg);

    println!("Commits at replica 0 per second of virtual time:");
    for sec in 0..10u64 {
        let from = sec * 1_000 * MILLIS;
        let to = from + 1_000 * MILLIS;
        let count = r.commits_between(0, from, to);
        let marker = if from == crash_at {
            "  <- crash of r2"
        } else if from == recover_at {
            "  <- r2 restarts"
        } else {
            ""
        };
        println!("  [{sec:>2}s..{:>2}s): {count:>4} commits{marker}", sec + 1);
    }

    println!("\nReplica 2 commits after its recovery:");
    println!(
        "  re-executed after rejoin: {} commands (total {})",
        r.commits_between(2, recover_at, u64::MAX),
        r.commit_counts[2]
    );

    println!("\nSafety checks:");
    println!("  total order:     {}", r.checks.total_order_ok);
    println!("  monotonic exec:  {}", r.checks.monotonic_ok);
    println!("  linearizability: {}", r.checks.real_time_ok);
    println!("  convergence:     {}", r.snapshots_agree);
    assert!(r.checks.all_ok() && r.snapshots_agree);
    println!("\nThe dip around t=2s is the failure-detection + reconfiguration");
    println!("window; service resumes on the surviving majority, and the");
    println!("restarted replica catches up via state transfer and rejoins.");
}
