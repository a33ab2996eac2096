//! Canonical performance baseline, in **virtual time**: a fixed
//! throughput/latency matrix — 3 protocols × {light, heavy} load × batch
//! cap {1, 64}, plus a **read-heavy (90/10) geo scenario** per protocol
//! and a keyspace shard sweep — written to machine-readable
//! `BENCH_perf.json` so every future PR has a trajectory to compare
//! against. Every row is an output of the deterministic simulator and
//! its `CpuModel`; wall-clock rows for the threaded runtime are the repo
//! benchmark's business (`benchmark/`), not this file's.
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
//! The same read-mix run is traced (`rsm-obs`, every command sampled —
//! observation does not change a simnet run) and its spans give the
//! **latency breakdown**, the live validation of the paper's claim that
//! Clock-RSM's commit latency is a **max of overlapped terms** —
//! majority prepare-replication vs the stable-timestamp advance —
//! rather than a sum of sequential phases. Columns are median virtual
//! milliseconds over every traced write:
//!
//! * `submit_to_propose` — client request arrival at the origin to the
//!   protocol stamping/sequencing it (queueing + batching delay).
//! * `propose_to_replicate` — stamping to majority acknowledgment.
//! * `propose_to_stable` — stamping to the stable-timestamp advance
//!   past the command (Clock-RSM only; the term replication overlaps).
//! * `propose_to_commit` — stamping to commit: for Clock-RSM this is
//!   `~max(replicate, stable)`, the paper's decomposition.
//! * `commit_to_execute`, `execute_to_reply` — apply + reply delivery.
//!
//! and the breakdown gates are:
//!
//! 1. no term's p50 exceeds the end-to-end p50 (a stage cannot take
//!    longer than the whole pipeline);
//! 2. the telescoping terms sum-consistently with the end-to-end p50
//!    (within ±30 %: medians do not telescope exactly, means do);
//! 3. Clock-RSM's stable-wait term is nonzero under geo delay, and its
//!    replicate-vs-stable ordering agrees **directionally** with the
//!    `analysis` model (`2·median_from` vs `max_from`);
//! 4. every replica's `commands.executed` counter equals its commit
//!    count (the instrumentation does not miscount).
//!
//! The **shard sweep** is the scale-out acceptance experiment
//! (`harness::shard`): 1/2/4/8 independent Clock-RSM groups, each offered
//! the same saturating per-group load (weak scaling), reporting the
//! aggregate committed throughput per shard count.
//!
//! Run with `cargo run -p bench --release --bin perf_baseline`.
//! `BENCH_QUICK=1` shrinks the windows for smoke runs; `--check` exits
//! non-zero if the read-mix gate or a breakdown gate fails or the
//! 8-shard aggregate lands below 4x the single-shard row (the CI
//! gates); `BENCH_PERF_OUT` overrides the output path. Progress and
//! missed gates go to stderr.

use std::fmt::Write as _;

use analysis::model;
use bench::quick;
use harness::{
    run_latency, run_sharded, ExperimentConfig, ExperimentResult, ProtocolChoice, ShardedConfig,
};
use rsm_core::obs::TraceStage;
use rsm_core::time::MILLIS;
use rsm_core::{BatchPolicy, LatencyMatrix, ReplicaId};
use rsm_obs::{ObsConfig, Span};
use simnet::{ClockModel, CpuModel};

/// The scale-out regression gate: the 8-shard Clock-RSM aggregate must
/// deliver at least this multiple of the single-shard row (sub-linear
/// scaling collapse fails `--check`).
const SHARD_SCALE_FLOOR: f64 = 4.0;

/// Sum-consistency gate: the telescoping term p50s must land within
/// this fraction of the end-to-end p50 (medians do not telescope
/// exactly; a larger gap means the terms describe a different
/// population than the end-to-end number).
const SUM_TOLERANCE_FRAC: f64 = 0.30;

/// Slow-command threshold for the read-mix run's slow log (µs): anything
/// past the geo topology's worst honest round trip gets dumped.
const SLOW_US: u64 = 150_000;

#[derive(Default)]
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

impl Cell {
    fn new(load: &'static str, policy: &'static str, r: &ExperimentResult) -> Self {
        Cell {
            protocol: r.protocol,
            load,
            policy,
            throughput_kops: r.throughput_kops,
            p50_ms: r.p50_ms,
            p99_ms: r.p99_ms,
            read_p50_ms: r.read_p50_ms,
            read_p99_ms: r.read_p99_ms,
            write_p50_ms: r.write_p50_ms,
            write_p99_ms: r.write_p99_ms,
            read_count: r.read_count,
        }
    }

    /// Read-mix acceptance: local reads alive everywhere; Clock-RSM's
    /// stable-timestamp reads strictly undercut its write commits.
    /// Returns what was missed.
    fn readmix_misses(&self) -> Vec<String> {
        let mut misses = Vec::new();
        if self.read_count == 0 {
            misses.push(format!(
                "{}: read-mix scenario produced no read samples (local read path dead?)",
                self.protocol
            ));
        }
        if self.protocol == "Clock-RSM" && self.read_p50_ms >= self.write_p50_ms {
            misses.push(format!(
                "{}: local-read p50 {:.2} ms not below write-commit p50 {:.2} ms",
                self.protocol, self.read_p50_ms, self.write_p50_ms
            ));
        }
        misses
    }
}

/// `(warmup, duration)` in µs; `BENCH_QUICK` shrinks them (and the
/// heavy-load client count) for CI smoke runs.
fn windows() -> (u64, u64) {
    if quick() {
        (200 * MILLIS, 1_000 * MILLIS)
    } else {
        (500 * MILLIS, 2_000 * MILLIS)
    }
}

/// The emulated local cluster of `run_throughput` (five replicas,
/// 0.25 ms one-way, 10 B commands, CPU cost model), built directly so
/// the windows honor `BENCH_QUICK`.
fn local_cluster(
    clients_per_site: usize,
    think_max_us: u64,
    batch: BatchPolicy,
) -> ExperimentConfig {
    let (warmup, duration) = windows();
    ExperimentConfig::new(LatencyMatrix::uniform(5, 250))
        .seed(11)
        .clients_per_site(clients_per_site)
        .think_max_us(think_max_us)
        .value_bytes(10)
        .warmup_us(warmup)
        .duration_us(duration)
        .cpu(CpuModel::default())
        .batch(batch)
        .record_ops(false)
}

/// Saturating closed-loop clients per site and group.
fn heavy_clients() -> usize {
    if quick() {
        20
    } else {
        40
    }
}

fn heavy(choice: ProtocolChoice, policy: BatchPolicy) -> ExperimentResult {
    run_latency(choice, &local_cluster(heavy_clients(), 0, policy))
}

/// Two clients per site pacing themselves with think time: queues stay
/// shallow, so per-command latency is what the cap can win or lose.
fn light(choice: ProtocolChoice, policy: BatchPolicy) -> ExperimentResult {
    run_latency(choice, &local_cluster(2, 20 * MILLIS, policy))
}

fn geo_matrix() -> LatencyMatrix {
    LatencyMatrix::uniform(3, 25_000)
}

/// The read-heavy geo scenario: 90/10 mix, 25 ms one-way between three
/// sites, ±1 ms NTP clocks, no CPU model (a latency experiment), reads
/// routed down each protocol's local read path; every command traced.
fn readmix(choice: ProtocolChoice) -> ExperimentResult {
    let (warmup, duration) = windows();
    let cfg = ExperimentConfig::new(geo_matrix())
        .seed(11)
        .clients_per_site(4)
        .think_max_us(20 * MILLIS)
        .read_fraction(0.9)
        .clock(ClockModel::ntp(MILLIS))
        .warmup_us(warmup)
        .duration_us(2 * duration)
        .record_ops(false)
        .observe(ObsConfig::all().slow_threshold(SLOW_US));
    run_latency(choice, &cfg)
}

/// One shard-sweep row: the aggregate of `shards` independent groups.
#[derive(Default)]
struct ShardRow {
    protocol: &'static str,
    shards: usize,
    aggregate_kops: f64,
    p50_ms: f64,
    p99_ms: f64,
    per_shard_kops: Vec<f64>,
}

/// One shard-sweep cell: `shards` independent Clock-RSM groups, each
/// offered the `heavy` scenario's saturating load (clients scale with
/// the shard count, a weak-scaling sweep), static-64 batching. The
/// aggregate row is the summed committed throughput across groups.
fn shard_cell(shards: usize) -> ShardRow {
    let base = local_cluster(heavy_clients() * shards, 0, BatchPolicy::max(64));
    let r = run_sharded(
        ProtocolChoice::clock_rsm(),
        &ShardedConfig::new(base, shards),
    );
    ShardRow {
        protocol: r.protocol,
        shards,
        aggregate_kops: r.aggregate.throughput_kops,
        p50_ms: r.aggregate.p50_ms,
        p99_ms: r.aggregate.p99_ms,
        per_shard_kops: r.per_shard.iter().map(|p| p.throughput_kops).collect(),
    }
}

/// Median of stage-pair deltas (virtual ms) over the spans that carry
/// both stamps; `None` when no span does.
fn term_p50_ms(spans: &[Span], earlier: TraceStage, later: TraceStage) -> Option<f64> {
    let mut deltas: Vec<u64> = spans
        .iter()
        .filter_map(|s| s.delta(earlier.index(), later.index()))
        .collect();
    if deltas.is_empty() {
        return None;
    }
    deltas.sort_unstable();
    Some(deltas[deltas.len() / 2] as f64 / 1_000.0)
}

/// The sequential stages of a write, as `(term, from, to)`: their p50s
/// telescope to the end-to-end p50.
const CHAIN: [(&str, TraceStage, TraceStage); 4] = {
    use TraceStage::*;
    [
        ("submit_to_propose", Submitted, Proposed),
        ("propose_to_commit", Proposed, Committed),
        ("commit_to_execute", Committed, Executed),
        ("execute_to_reply", Executed, Replied),
    ]
};

/// The per-protocol latency-breakdown row (p50s in virtual ms).
#[derive(Default)]
struct Breakdown {
    protocol: &'static str,
    spans: usize,
    open_spans: usize,
    slow_spans: usize,
    e2e_p50_ms: f64,
    /// The [`CHAIN`] terms, in order.
    terms: [(&'static str, f64); 4],
    /// The overlapped commit conditions, where the protocol stamps them.
    propose_to_replicate_ms: Option<f64>,
    propose_to_stable_ms: Option<f64>,
    /// `analysis` model commit prediction for this protocol on the geo
    /// matrix, median over origin replicas, ms.
    model_commit_ms: f64,
}

impl Breakdown {
    fn new(r: &ExperimentResult) -> Self {
        use TraceStage::*;
        let term = |a, b| term_p50_ms(&r.spans, a, b);
        let m = geo_matrix();
        let mut models: Vec<u64> = m
            .replicas()
            .map(|i| match r.protocol {
                "Clock-RSM" => model::clock_rsm_balanced(&m, i),
                "Paxos" => model::paxos(&m, i, ReplicaId::new(0)),
                _ => model::mencius_bcast_imbalanced(&m, i),
            })
            .collect();
        models.sort_unstable();
        Breakdown {
            protocol: r.protocol,
            spans: r.spans.len(),
            open_spans: r.open_spans,
            slow_spans: r
                .spans
                .iter()
                .filter(|s| s.delta(Submitted.index(), Replied.index()) > Some(SLOW_US))
                .count(),
            e2e_p50_ms: term(Submitted, Replied).unwrap_or(0.0),
            terms: CHAIN.map(|(name, a, b)| (name, term(a, b).unwrap_or(0.0))),
            propose_to_replicate_ms: term(Proposed, Replicated),
            propose_to_stable_ms: term(Proposed, Stable),
            model_commit_ms: models[models.len() / 2] as f64 / 1_000.0,
        }
    }

    /// Telescoping sum of the sequential terms (compare to `e2e_p50_ms`).
    fn term_sum_ms(&self) -> f64 {
        self.terms.iter().map(|t| t.1).sum()
    }

    /// The row as one JSON object.
    fn json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.3}"));
        let terms = self.terms.map(|(name, v)| format!("\"{name}_ms\": {v:.3}"));
        format!(
            "{{ \"protocol\": \"{}\", \"spans\": {}, \"e2e_p50_ms\": {:.3}, {}, \
             \"propose_to_replicate_ms\": {}, \"propose_to_stable_ms\": {}, \
             \"term_sum_ms\": {:.3}, \"model_commit_ms\": {:.3}, \"slow_spans\": {} }}",
            self.protocol,
            self.spans,
            self.e2e_p50_ms,
            terms.join(", "),
            opt(self.propose_to_replicate_ms),
            opt(self.propose_to_stable_ms),
            self.term_sum_ms(),
            self.model_commit_ms,
            self.slow_spans
        )
    }
}

/// The four breakdown gates (module docs); returns what was missed.
fn breakdown_misses(b: &Breakdown, r: &ExperimentResult) -> Vec<String> {
    let mut misses = Vec::new();
    if b.spans == 0 {
        misses.push(format!("{}: traced run produced no spans", b.protocol));
    }
    // Gate 1: no term exceeds the end-to-end median.
    for (name, v) in b.terms {
        if v > b.e2e_p50_ms + 1e-3 {
            misses.push(format!(
                "{}: breakdown term {name} p50 {v:.3} ms exceeds end-to-end p50 {:.3} ms",
                b.protocol, b.e2e_p50_ms
            ));
        }
    }
    // Gate 2: telescoping sum consistency.
    let off = (b.term_sum_ms() - b.e2e_p50_ms).abs() / b.e2e_p50_ms;
    if b.e2e_p50_ms > 0.0 && off > SUM_TOLERANCE_FRAC {
        misses.push(format!(
            "{}: term sum {:.3} ms is {:.0}% off the end-to-end p50 {:.3} ms (tolerance {:.0}%)",
            b.protocol,
            b.term_sum_ms(),
            off * 100.0,
            b.e2e_p50_ms,
            SUM_TOLERANCE_FRAC * 100.0
        ));
    }
    // Gate 3: Clock-RSM's decomposition, directionally vs the model.
    if b.protocol == "Clock-RSM" {
        let stable = b.propose_to_stable_ms.unwrap_or(0.0);
        let replicate = b.propose_to_replicate_ms.unwrap_or(0.0);
        if stable <= 0.0 {
            misses.push("Clock-RSM: stable-wait term is zero under 25 ms geo delay".to_string());
        }
        let m = geo_matrix();
        let origin = ReplicaId::new(0);
        let (model_replicate, model_stable) = (2 * m.median_from(origin), m.max_from(origin));
        if (replicate > stable) != (model_replicate > model_stable) {
            misses.push(format!(
                "Clock-RSM: measured replicate {replicate:.2} ms vs stable {stable:.2} ms \
                 disagrees with the model's ordering ({model_replicate} µs vs {model_stable} µs)"
            ));
        }
    }
    // Gate 4: the executed-command counter mirrors each replica's
    // commit count exactly.
    let metrics = r.metrics.as_ref().expect("observed run has metrics");
    for (i, &commits) in r.commit_counts.iter().enumerate() {
        let counted = metrics
            .counters
            .get(&format!("r{i}.commands.executed"))
            .copied()
            .unwrap_or(0);
        if counted != commits {
            misses.push(format!(
                "{}: replica {i} executed-counter {counted} != commit count {commits}",
                b.protocol
            ));
        }
    }
    misses
}

/// One JSON member holding an array, its `rows` one per line.
fn json_section(key: &str, rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.collect();
    format!("  \"{key}\": [\n    {}\n  ]", rows.join(",\n    "))
}

/// The machine-readable trajectory record, a pure function of the rows
/// (no serde in this workspace: the JSON is assembled by hand).
fn render_json(
    quick: bool,
    cells: &[Cell],
    breakdowns: &[Breakdown],
    sweep: &[ShardRow],
) -> String {
    let entry = |c: &Cell| {
        let mut row = format!(
            "{{ \"protocol\": \"{}\", \"load\": \"{}\", \"policy\": \"{}\", \
             \"throughput_kops\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}",
            c.protocol, c.load, c.policy, c.throughput_kops, c.p50_ms, c.p99_ms
        );
        if c.load == "readmix" {
            let _ = write!(
                row,
                ", \"read_p50_ms\": {:.3}, \"read_p99_ms\": {:.3}, \
                 \"write_p50_ms\": {:.3}, \"write_p99_ms\": {:.3}, \
                 \"read_count\": {}",
                c.read_p50_ms, c.read_p99_ms, c.write_p50_ms, c.write_p99_ms, c.read_count
            );
        }
        row + " }"
    };
    let summary = |c: &Cell| {
        format!(
            "{{ \"protocol\": \"{}\", \
             \"readmix_read_p50_ms\": {:.3}, \"readmix_write_p50_ms\": {:.3}, \
             \"readmix_meets_targets\": {} }}",
            c.protocol,
            c.read_p50_ms,
            c.write_p50_ms,
            c.readmix_misses().is_empty()
        )
    };
    let shard = |r: &ShardRow| {
        let per_shard: Vec<String> = r.per_shard_kops.iter().map(|k| format!("{k:.3}")).collect();
        format!(
            "{{ \"protocol\": \"{}\", \"shards\": {}, \"aggregate_kops\": {:.3}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"per_shard_kops\": [{}] }}",
            r.protocol,
            r.shards,
            r.aggregate_kops,
            r.p50_ms,
            r.p99_ms,
            per_shard.join(", ")
        )
    };
    let members = [
        "  \"schema\": \"clock-rsm-repro/perf-baseline/v8\"".to_string(),
        "  \"time_base\": \"virtual\"".to_string(),
        format!("  \"quick\": {quick}"),
        format!(
            "  \"targets\": {{ \"readmix_clock_rsm_read_p50_below_write_p50\": true, \
             \"shard8_aggregate_vs_shard1_min\": {SHARD_SCALE_FLOOR} }}"
        ),
        json_section("latency_breakdown", breakdowns.iter().map(Breakdown::json)),
        json_section("entries", cells.iter().map(entry)),
        json_section(
            "summary",
            cells.iter().filter(|c| c.load == "readmix").map(summary),
        ),
        json_section("shard_sweep", sweep.iter().map(shard)),
    ];
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let out_path =
        std::env::var("BENCH_PERF_OUT").unwrap_or_else(|_| "BENCH_perf.json".to_string());

    let mut cells: Vec<Cell> = Vec::new();
    let mut breakdowns: Vec<Breakdown> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for choice in [
        ProtocolChoice::clock_rsm(),
        ProtocolChoice::paxos(0),
        ProtocolChoice::mencius(),
    ] {
        for (pname, policy) in [
            ("static1", BatchPolicy::DISABLED),
            ("static64", BatchPolicy::max(64)),
        ] {
            for (load, r) in [
                ("light", light(choice.clone(), policy)),
                ("heavy", heavy(choice.clone(), policy)),
            ] {
                eprintln!(
                    "{:<14} {:<6} {:<9} {:>8.1} kops/s  p50 {:>6.2} ms  p99 {:>6.2} ms",
                    r.protocol, load, pname, r.throughput_kops, r.p50_ms, r.p99_ms
                );
                cells.push(Cell::new(load, pname, &r));
            }
        }
        // The read-heavy geo scenario (policy-independent: reads bypass
        // the batching pipeline by construction). One traced run feeds
        // both the matrix cell and the latency-breakdown row.
        let r = readmix(choice);
        eprintln!(
            "{:<14} {:<6} {:<9} {:>8.1} kops/s  read p50 {:>6.2} ms  write p50 {:>6.2} ms",
            r.protocol, "readmx", "local", r.throughput_kops, r.read_p50_ms, r.write_p50_ms
        );
        let (cell, b) = (Cell::new("readmix", "local", &r), Breakdown::new(&r));
        failures.extend(cell.readmix_misses());
        failures.extend(breakdown_misses(&b, &r));
        if b.slow_spans > 0 {
            eprintln!(
                "{}: {} spans over the {} ms slow threshold ({} open at shutdown)",
                b.protocol,
                b.slow_spans,
                SLOW_US / 1_000,
                b.open_spans
            );
        }
        cells.push(cell);
        breakdowns.push(b);
    }

    // The scale-out sweep: 1/2/4/8 independent Clock-RSM groups, each
    // saturated like the heavy scenario. The gate judges the 8-shard
    // aggregate against 4x the single-shard row.
    let sweep = [1, 2, 4, 8].map(shard_cell);
    let (shard1, shard8) = (sweep[0].aggregate_kops, sweep[3].aggregate_kops);
    let scale8 = shard8 / shard1.max(1e-9);
    eprintln!("8-shard scaling: {scale8:.2}x the single-shard row");
    if scale8 < SHARD_SCALE_FLOOR {
        failures.push(format!(
            "shard sweep: 8-shard aggregate {shard8:.1}k is only {scale8:.2}x the \
             1-shard row {shard1:.1}k (floor {SHARD_SCALE_FLOOR:.0}x)"
        ));
    }

    let json = render_json(quick(), &cells, &breakdowns, &sweep);
    std::fs::write(&out_path, &json).expect("write BENCH_perf.json");
    eprintln!("wrote {out_path}");

    if !failures.is_empty() {
        eprintln!("\nperf_baseline gates missed:");
        for f in &failures {
            eprintln!("  {f}");
        }
        if check {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(protocol: &'static str, load: &'static str) -> Cell {
        Cell {
            protocol,
            load,
            policy: "static1",
            read_p50_ms: 30.0,
            write_p50_ms: 50.6,
            read_count: 900,
            ..Cell::default()
        }
    }

    fn breakdown_row(protocol: &'static str, stable: Option<f64>) -> Breakdown {
        Breakdown {
            protocol,
            spans: 137,
            terms: CHAIN.map(|(name, ..)| (name, 12.5)),
            propose_to_stable_ms: stable,
            ..Breakdown::default()
        }
    }

    #[test]
    fn json_is_virtual_time_balanced_and_has_one_breakdown_per_protocol() {
        let protocols = ["Clock-RSM", "Paxos", "Mencius-bcast"];
        let cells: Vec<Cell> = protocols
            .iter()
            .flat_map(|&p| [cell(p, "heavy"), cell(p, "readmix")])
            .collect();
        let breakdowns = [
            breakdown_row("Clock-RSM", Some(28.5)),
            breakdown_row("Paxos", None),
            breakdown_row("Mencius-bcast", None),
        ];
        let sweep = [1usize, 8].map(|shards| ShardRow {
            protocol: "Clock-RSM",
            shards,
            per_shard_kops: vec![85.0; shards],
            ..ShardRow::default()
        });
        let json = render_json(false, &cells, &breakdowns, &sweep);

        assert!(json.contains("\"schema\": \"clock-rsm-repro/perf-baseline/v8\""));
        assert!(json.contains("\"time_base\": \"virtual\""));
        assert!(!json.contains("loopback"));
        // One latency_breakdown object per protocol, in protocol order.
        let section = json.split("\"latency_breakdown\": [").nth(1).unwrap();
        let section = &section[..section.find("\n  ],").unwrap()];
        let rows: Vec<&str> = section.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(rows.len(), protocols.len());
        for (row, p) in rows.iter().zip(protocols) {
            assert!(row.contains(&format!("\"protocol\": \"{p}\", \"spans\": 137")));
        }
        assert!(rows[0].contains("\"propose_to_stable_ms\": 28.500"));
        assert!(rows[0].contains("\"commit_to_execute_ms\": 12.500"));
        assert!(rows[0].contains("\"term_sum_ms\": 50.000"));
        assert!(rows[1].contains("\"propose_to_stable_ms\": null"));
        // Only read-mix cells carry the read/write split and a summary row.
        assert_eq!(json.matches("\"read_count\"").count(), protocols.len());
        assert_eq!(json.matches("\"readmix_meets_targets\": true").count(), 3);
        // Well-formed enough to parse: balanced, properly nested brackets
        // (no string in the file holds one) and no trailing commas.
        let mut open = Vec::new();
        for ch in json.chars() {
            match ch {
                '{' | '[' => open.push(ch),
                '}' => assert_eq!(open.pop(), Some('{')),
                ']' => assert_eq!(open.pop(), Some('[')),
                _ => {}
            }
        }
        assert!(open.is_empty());
        let squeezed: String = json.split_whitespace().collect();
        assert!(!squeezed.contains(",]") && !squeezed.contains(",}"));
    }

    #[test]
    fn readmix_gate_names_what_was_missed() {
        let mut c = cell("Clock-RSM", "readmix");
        assert!(c.readmix_misses().is_empty());
        c.read_p50_ms = c.write_p50_ms;
        assert_eq!(c.readmix_misses().len(), 1);
        c.read_count = 0;
        assert_eq!(c.readmix_misses().len(), 2);
        // Only Clock-RSM promises reads below writes.
        let mut m = cell("Mencius-bcast", "readmix");
        m.read_p50_ms = m.write_p50_ms;
        assert!(m.readmix_misses().is_empty());
    }
}
