//! Canonical performance baseline: a fixed throughput/latency matrix —
//! 3 protocols × {light, heavy} load × batch cap {1, 64}, plus a
//! **read-heavy (90/10) geo scenario** per protocol — written to
//! machine-readable `BENCH_perf.json` so every future PR has a
//! trajectory to compare against.
//!
//! The batching matrix records what the cap buys and costs:
//!
//! * **heavy** load (saturating closed-loop clients, 10 B commands, the
//!   default CPU cost model) measures throughput (amortization).
//! * **light** load (2 clients per site with think time) measures p50
//!   commit latency (flushes are opportunistic, so the cap costs
//!   nothing when there is nothing to batch).
//!
//! The **readmix** column is the local-read acceptance experiment
//! (`rsm_core::read`): a 90/10 mix on a 25 ms-one-way geo topology with
//! ±1 ms NTP clocks, reporting read and write p50/p99 separately. The
//! gate: Clock-RSM's stable-timestamp local reads must land strictly
//! below its write commits at the median, and every protocol must
//! produce read samples (the read path is alive, not silently falling
//! back to replication).
//!
//! The **shard sweep** is the scale-out acceptance experiment
//! (`rsm-shard`): 1/2/4/8 independent Clock-RSM groups, each offered
//! the same saturating per-group load (weak scaling), reporting the
//! aggregate committed throughput per shard count.
//!
//! The **loopback** section is the wire-codec/transport acceptance
//! experiment (`rsm_core::wire` + `rsm-transport`): each protocol runs
//! in the threaded runtime twice — in-process channels vs real loopback
//! TCP sockets with the binary wire format — under the same saturating
//! closed-loop load. Real encode/decode, framing, and kernel round
//! trips replace channel sends; the gate requires the TCP row to hold
//! at least half the in-process throughput (a codec or framing
//! regression shows up as a collapse here long before it matters on a
//! real network).
//!
//! The `latency_breakdown` section is emitted as a single-line
//! placeholder here and filled **in place** by the `obs_report` binary
//! (run it after this one; see its doc header for the column
//! definitions and the gates it applies).
//!
//! Run with `cargo run -p bench --release --bin perf_baseline`.
//! `BENCH_QUICK=1` shrinks the windows for smoke runs; `--check` exits
//! non-zero if the read-mix gate fails, the 8-shard aggregate lands
//! below 4x the single-shard row, or a loopback-TCP row falls below
//! half its in-process twin (the CI gates); `BENCH_PERF_OUT` overrides
//! the output path.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::quick;
use clock_rsm::{ClockRsm, ClockRsmConfig};
use harness::{
    run_latency, run_sharded, ExperimentConfig, ExperimentResult, ProtocolChoice, ShardedConfig,
    ShardedResult,
};
use kvstore::{KvOp, KvStore};
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use rsm_core::protocol::Protocol;
use rsm_core::time::MILLIS;
use rsm_core::wire::WireMsg;
use rsm_core::{BatchPolicy, LatencyMatrix, Membership, ReplicaId};
use rsm_runtime::{Cluster, ClusterConfig, ClusterTransport};
use simnet::{ClockModel, CpuModel};

/// The scale-out regression gate: the 8-shard Clock-RSM aggregate must
/// deliver at least this multiple of the single-shard row (sub-linear
/// scaling collapse fails `--check`).
const SHARD_SCALE_FLOOR: f64 = 4.0;

/// The transport regression gate: each protocol's loopback-TCP row must
/// hold at least this fraction of its in-process twin's throughput.
/// Sockets pay real encode/decode, framing, and kernel round trips, so
/// parity is not expected — but a codec or transport regression that
/// halves throughput over loopback fails `--check`.
const LOOPBACK_FLOOR: f64 = 0.5;

struct Cell {
    protocol: &'static str,
    load: &'static str,
    policy: &'static str,
    throughput_kops: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Read/write latency split; zero outside the readmix scenario.
    read_p50_ms: f64,
    read_p99_ms: f64,
    write_p50_ms: f64,
    write_p99_ms: f64,
    read_count: usize,
}

fn policies() -> [(&'static str, BatchPolicy); 2] {
    [
        ("static1", BatchPolicy::DISABLED),
        ("static64", BatchPolicy::max(64)),
    ]
}

/// Measurement windows for both load shapes: `BENCH_QUICK` shrinks
/// them (and the heavy-load client count) for CI smoke runs.
fn windows() -> (u64, u64) {
    if quick() {
        (200 * MILLIS, 1_000 * MILLIS)
    } else {
        (500 * MILLIS, 2_000 * MILLIS)
    }
}

fn heavy(choice: ProtocolChoice, policy: BatchPolicy) -> ExperimentResult {
    // The emulated local cluster of `run_throughput` (0.25 ms one-way,
    // saturating closed-loop clients, CPU cost model), built directly
    // so the windows honor BENCH_QUICK.
    let clients = if quick() { 20 } else { 40 };
    let (warmup, duration) = windows();
    let cfg = ExperimentConfig::new(LatencyMatrix::uniform(5, 250))
        .seed(11)
        .clients_per_site(clients)
        .think_max_us(0)
        .value_bytes(10)
        .warmup_us(warmup)
        .duration_us(duration)
        .cpu(CpuModel::default())
        .batch(policy)
        .record_ops(false);
    run_latency(choice, &cfg)
}

/// The read-heavy geo scenario: 90/10 mix, 25 ms one-way between three
/// sites, ±1 ms NTP clocks, no CPU model (a latency experiment), reads
/// routed down each protocol's local read path.
fn readmix(choice: ProtocolChoice) -> ExperimentResult {
    let (warmup, duration) = windows();
    let cfg = ExperimentConfig::new(LatencyMatrix::uniform(3, 25_000))
        .seed(11)
        .clients_per_site(4)
        .think_max_us(20 * MILLIS)
        .read_fraction(0.9)
        .clock(ClockModel::ntp(MILLIS))
        .warmup_us(warmup)
        .duration_us(2 * duration)
        .record_ops(false);
    run_latency(choice, &cfg)
}

fn light(choice: ProtocolChoice, policy: BatchPolicy) -> ExperimentResult {
    // Same emulated local cluster, but two clients per site pacing
    // themselves with think time: queues stay shallow, so per-command
    // latency is what the policy can win or lose.
    let (warmup, duration) = windows();
    let cfg = ExperimentConfig::new(LatencyMatrix::uniform(5, 250))
        .seed(11)
        .clients_per_site(2)
        .think_max_us(20 * MILLIS)
        .value_bytes(10)
        .warmup_us(warmup)
        .duration_us(duration)
        .cpu(CpuModel::default())
        .batch(policy)
        .record_ops(false);
    run_latency(choice, &cfg)
}

/// One shard-sweep cell: `shards` independent Clock-RSM groups over the
/// emulated local cluster, each offered the same saturating per-group
/// load as the `heavy` scenario (clients scale with the shard count, a
/// weak-scaling sweep), static-64 batching. The aggregate row is the
/// summed committed throughput across groups.
fn shard_cell(shards: usize) -> ShardedResult {
    let per_site = if quick() { 20 } else { 40 } * shards;
    let (warmup, duration) = windows();
    let base = ExperimentConfig::new(LatencyMatrix::uniform(5, 250))
        .seed(11)
        .clients_per_site(per_site)
        .think_max_us(0)
        .value_bytes(10)
        .warmup_us(warmup)
        .duration_us(duration)
        .cpu(CpuModel::default())
        .batch(BatchPolicy::max(64))
        .record_ops(false);
    run_sharded(
        ProtocolChoice::clock_rsm(),
        &ShardedConfig::new(base, shards),
    )
}

/// One loopback-transport row: a protocol in the threaded runtime over
/// one message plane.
struct LoopRow {
    protocol: &'static str,
    transport: &'static str,
    throughput_kops: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Runs one protocol in the **threaded runtime** (real OS threads, real
/// wall-clock time) over the chosen message plane, under a saturating
/// closed-loop load, and measures per-command wall-clock latency.
///
/// Unlike the simulator rows this measures the actual codec and
/// transport code: in socket modes every protocol message is encoded
/// with the binary wire format, framed, and round-trips through the
/// kernel's loopback stack.
fn run_loopback<P>(
    protocol: &'static str,
    transport_name: &'static str,
    transport: ClusterTransport,
    factory: impl FnMut(ReplicaId) -> P,
) -> LoopRow
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg,
{
    let (warmup_us, duration_us) = windows();
    let sites: u16 = 3;
    let per_site = if quick() { 4 } else { 8 };
    // A local cluster (0.25 ms one-way, like the heavy scenario) so the
    // transport — not the emulated WAN — dominates the measurement.
    let cfg = ClusterConfig::new(LatencyMatrix::uniform(sites as usize, 250))
        .batch_policy(BatchPolicy::max(64))
        .transport(transport);
    let cluster = Arc::new(Cluster::spawn(cfg, factory, || Box::new(KvStore::new())));
    let stop = Arc::new(AtomicBool::new(false));
    let measuring = Arc::new(AtomicBool::new(false));

    let mut clients = Vec::new();
    for site in 0..sites {
        for c in 0..per_site {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            let measuring = Arc::clone(&measuring);
            clients.push(std::thread::spawn(move || {
                let site = ReplicaId::new(site);
                let key = format!("k{}-{c}", site.index());
                let mut lat_us: Vec<u64> = Vec::new();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let t0 = Instant::now();
                    let ok = cluster
                        .execute(
                            site,
                            KvOp::put(key.clone(), format!("v{i}")).encode(),
                            Duration::from_secs(5),
                        )
                        .is_ok();
                    if ok && measuring.load(Ordering::Relaxed) {
                        lat_us.push(t0.elapsed().as_micros() as u64);
                    }
                }
                lat_us
            }));
        }
    }

    std::thread::sleep(Duration::from_micros(warmup_us));
    measuring.store(true, Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_micros(duration_us));
    measuring.store(false, Ordering::Relaxed);
    let measured = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);

    let mut lat_us: Vec<u64> = Vec::new();
    for h in clients {
        lat_us.extend(h.join().expect("client thread panicked"));
    }
    if let Ok(cluster) = Arc::try_unwrap(cluster) {
        cluster.shutdown();
    }

    lat_us.sort_unstable();
    let pct = |p: f64| -> f64 {
        if lat_us.is_empty() {
            return 0.0;
        }
        let idx = ((lat_us.len() as f64 * p) as usize).min(lat_us.len() - 1);
        lat_us[idx] as f64 / 1_000.0
    };
    LoopRow {
        protocol,
        transport: transport_name,
        throughput_kops: lat_us.len() as f64 / measured / 1_000.0,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

/// The loopback matrix: each protocol over in-process channels and over
/// loopback TCP (the `--check` gate compares the pair).
fn loopback_rows() -> Vec<LoopRow> {
    let planes = [
        ("thread-inproc", ClusterTransport::InProcess),
        ("thread-tcp", ClusterTransport::Tcp),
    ];
    let mut rows = Vec::new();
    for (tname, transport) in planes {
        rows.push(run_loopback("Clock-RSM", tname, transport, |id| {
            ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default())
        }));
    }
    for (tname, transport) in planes {
        rows.push(run_loopback("Paxos", tname, transport, |id| {
            MultiPaxos::new(
                id,
                Membership::uniform(3),
                ReplicaId::new(0),
                PaxosVariant::Bcast,
            )
        }));
    }
    for (tname, transport) in planes {
        rows.push(run_loopback("Mencius-bcast", tname, transport, |id| {
            MenciusBcast::new(id, Membership::uniform(3))
        }));
    }
    rows
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let out_path =
        std::env::var("BENCH_PERF_OUT").unwrap_or_else(|_| "BENCH_perf.json".to_string());

    let protocols = [
        ProtocolChoice::clock_rsm(),
        ProtocolChoice::paxos(0),
        ProtocolChoice::mencius(),
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for choice in &protocols {
        for (pname, policy) in policies() {
            for (load, r) in [
                ("light", light(choice.clone(), policy)),
                ("heavy", heavy(choice.clone(), policy)),
            ] {
                eprintln!(
                    "{:<14} {:<6} {:<9} {:>8.1} kops/s  p50 {:>6.2} ms  p99 {:>6.2} ms",
                    r.protocol, load, pname, r.throughput_kops, r.p50_ms, r.p99_ms
                );
                cells.push(Cell {
                    protocol: r.protocol,
                    load,
                    policy: pname,
                    throughput_kops: r.throughput_kops,
                    p50_ms: r.p50_ms,
                    p99_ms: r.p99_ms,
                    read_p50_ms: 0.0,
                    read_p99_ms: 0.0,
                    write_p50_ms: 0.0,
                    write_p99_ms: 0.0,
                    read_count: 0,
                });
            }
        }
        // The read-heavy geo scenario (policy-independent: reads bypass
        // the batching pipeline by construction).
        let r = readmix(choice.clone());
        eprintln!(
            "{:<14} {:<6} {:<9} {:>8.1} kops/s  read p50 {:>6.2} ms  write p50 {:>6.2} ms",
            r.protocol, "readmx", "local", r.throughput_kops, r.read_p50_ms, r.write_p50_ms
        );
        cells.push(Cell {
            protocol: r.protocol,
            load: "readmix",
            policy: "local",
            throughput_kops: r.throughput_kops,
            p50_ms: r.p50_ms,
            p99_ms: r.p99_ms,
            read_p50_ms: r.read_p50_ms,
            read_p99_ms: r.read_p99_ms,
            write_p50_ms: r.write_p50_ms,
            write_p99_ms: r.write_p99_ms,
            read_count: r.read_count,
        });
    }

    let get = |protocol: &str, load: &str, policy: &str| -> &Cell {
        cells
            .iter()
            .find(|c| c.protocol == protocol && c.load == load && c.policy == policy)
            .expect("full matrix")
    };

    let mut failures = Vec::new();

    // Read-mix acceptance: local reads alive everywhere; Clock-RSM's
    // stable-timestamp reads strictly undercut its write commits.
    println!("\n=== Read-heavy (90/10) geo scenario ===");
    println!(
        "{:<14}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "protocol", "read p50", "read p99", "write p50", "write p99", "verdict"
    );
    let mut read_summaries = Vec::new();
    for choice in &protocols {
        let name = choice.name();
        let c = get(name, "readmix", "local");
        let alive = c.read_count > 0;
        let local_wins = c.read_p50_ms < c.write_p50_ms;
        let meets = alive && (name != "Clock-RSM" || local_wins);
        println!(
            "{name:<14}{:>10.2}ms{:>10.2}ms{:>10.2}ms{:>10.2}ms{:>10}",
            c.read_p50_ms,
            c.read_p99_ms,
            c.write_p50_ms,
            c.write_p99_ms,
            if meets { "ok" } else { "MISS" }
        );
        if check {
            if !alive {
                failures.push(format!(
                    "{name}: read-mix scenario produced no read samples \
                     (local read path dead?)"
                ));
            }
            if name == "Clock-RSM" && !local_wins {
                failures.push(format!(
                    "{name}: local-read p50 {:.2} ms not below write-commit \
                     p50 {:.2} ms",
                    c.read_p50_ms, c.write_p50_ms
                ));
            }
        }
        read_summaries.push((name, c.read_p50_ms, c.write_p50_ms, meets));
    }

    // The scale-out sweep: 1/2/4/8 independent Clock-RSM groups, each
    // saturated like the heavy scenario. The gate judges the 8-shard
    // aggregate against 4x the single-shard row.
    println!("\n=== Keyspace shard sweep (Clock-RSM, weak scaling) ===");
    println!(
        "{:<8}{:>16}{:>14}{:>12}{:>12}",
        "shards", "aggregate kops", "per-shard avg", "p50 ms", "p99 ms"
    );
    let sweep: Vec<ShardedResult> = [1usize, 2, 4, 8].iter().map(|&s| shard_cell(s)).collect();
    for r in &sweep {
        println!(
            "{:<8}{:>16.1}{:>14.1}{:>12.2}{:>12.2}",
            r.shards,
            r.aggregate.throughput_kops,
            r.aggregate.throughput_kops / r.shards as f64,
            r.aggregate.p50_ms,
            r.aggregate.p99_ms
        );
    }
    let shard1 = sweep[0].aggregate.throughput_kops;
    let shard8 = sweep[3].aggregate.throughput_kops;
    let scale8 = shard8 / shard1.max(1e-9);
    println!("8-shard scaling: {scale8:.2}x the single-shard row");
    if check && scale8 < SHARD_SCALE_FLOOR {
        failures.push(format!(
            "shard sweep: 8-shard aggregate {shard8:.1}k is only {scale8:.2}x the \
             1-shard row {shard1:.1}k (floor {SHARD_SCALE_FLOOR:.0}x)"
        ));
    }

    // The loopback transport matrix: the threaded runtime over channels
    // vs real TCP sockets with the binary wire codec.
    println!("\n=== Threaded runtime: in-process vs loopback TCP ===");
    println!(
        "{:<14}{:<15}{:>12}{:>10}{:>10}",
        "protocol", "transport", "kops/s", "p50 ms", "p99 ms"
    );
    let loopback = loopback_rows();
    for r in &loopback {
        println!(
            "{:<14}{:<15}{:>12.1}{:>10.2}{:>10.2}",
            r.protocol, r.transport, r.throughput_kops, r.p50_ms, r.p99_ms
        );
    }
    for pair in loopback.chunks(2) {
        let (inproc, tcp) = (&pair[0], &pair[1]);
        let frac = tcp.throughput_kops / inproc.throughput_kops.max(1e-9);
        println!(
            "{}: tcp holds {:.1}% of in-process throughput",
            tcp.protocol,
            frac * 100.0
        );
        if check && frac < LOOPBACK_FLOOR {
            failures.push(format!(
                "{}: loopback-TCP throughput {:.1}k is {:.1}% of in-process \
                 {:.1}k (floor {:.0}%)",
                tcp.protocol,
                tcp.throughput_kops,
                frac * 100.0,
                inproc.throughput_kops,
                LOOPBACK_FLOOR * 100.0
            ));
        }
    }

    // Machine-readable trajectory record (no serde in this workspace:
    // the JSON is assembled by hand).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"clock-rsm-repro/perf-baseline/v7\",");
    let _ = writeln!(json, "  \"quick\": {},", quick());
    let _ = writeln!(
        json,
        "  \"targets\": {{ \"readmix_clock_rsm_read_p50_below_write_p50\": true, \
         \"shard8_aggregate_vs_shard1_min\": {SHARD_SCALE_FLOOR}, \
         \"loopback_tcp_vs_inproc_min\": {LOOPBACK_FLOOR} }},"
    );
    // Filled **in place** by the `obs_report` binary (kept to a single
    // line so its substitution is line-based; run it after this one).
    json.push_str("  \"latency_breakdown\": [],\n");
    json.push_str("  \"entries\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"protocol\": \"{}\", \"load\": \"{}\", \"policy\": \"{}\", \
             \"throughput_kops\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}",
            c.protocol, c.load, c.policy, c.throughput_kops, c.p50_ms, c.p99_ms
        );
        if c.load == "readmix" {
            let _ = write!(
                json,
                ", \"read_p50_ms\": {:.3}, \"read_p99_ms\": {:.3}, \
                 \"write_p50_ms\": {:.3}, \"write_p99_ms\": {:.3}, \
                 \"read_count\": {}",
                c.read_p50_ms, c.read_p99_ms, c.write_p50_ms, c.write_p99_ms, c.read_count
            );
        }
        json.push_str(" }");
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"summary\": [\n");
    for (i, (name, read_p50, write_p50, read_meets)) in read_summaries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"protocol\": \"{name}\", \
             \"readmix_read_p50_ms\": {read_p50:.3}, \"readmix_write_p50_ms\": {write_p50:.3}, \
             \"readmix_meets_targets\": {read_meets} }}"
        );
        json.push_str(if i + 1 < read_summaries.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"shard_sweep\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        let per_shard: Vec<String> = r
            .per_shard
            .iter()
            .map(|p| format!("{:.3}", p.throughput_kops))
            .collect();
        let _ = write!(
            json,
            "    {{ \"protocol\": \"{}\", \"shards\": {}, \"aggregate_kops\": {:.3}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"per_shard_kops\": [{}] }}",
            r.protocol,
            r.shards,
            r.aggregate.throughput_kops,
            r.aggregate.p50_ms,
            r.aggregate.p99_ms,
            per_shard.join(", ")
        );
        json.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"loopback\": [\n");
    for (i, r) in loopback.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"protocol\": \"{}\", \"transport\": \"{}\", \
             \"throughput_kops\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3} }}",
            r.protocol, r.transport, r.throughput_kops, r.p50_ms, r.p99_ms
        );
        json.push_str(if i + 1 < loopback.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_perf.json");
    println!("\nwrote {out_path}");

    if !failures.is_empty() {
        eprintln!("\nperf_baseline --check FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
