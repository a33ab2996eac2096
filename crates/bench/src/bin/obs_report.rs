//! Per-command latency breakdown from trace spans: the observability
//! acceptance experiment, and the live validation of the paper's
//! latency decomposition.
//!
//! Clock-RSM's central claim is that commit latency is a **max of
//! overlapped terms** — majority prepare-replication vs the
//! stable-timestamp advance — rather than a sum of sequential phases.
//! This binary runs the geo read-mix workload (25 ms one-way between
//! three sites, ±1 ms NTP clocks, 90/10 reads) for each protocol with
//! full span tracing (`rsm-obs`), aggregates the per-stage medians
//! into a latency-breakdown table, and writes it into
//! `BENCH_perf.json` next to `perf_baseline`'s matrix.
//!
//! Breakdown columns (median virtual milliseconds over every traced
//! write):
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
//! `--check` gates on the breakdown invariants:
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
//! What instrumentation costs is a wall-clock question this
//! virtual-time experiment cannot answer (observation consumes no
//! virtual time); the repo benchmark's `obs.overhead_frac` row
//! measures it.
//!
//! Run **after** `perf_baseline` (it substitutes the single-line
//! `"latency_breakdown"` placeholder section in place); standalone runs
//! write a fresh skeleton file instead. `BENCH_QUICK=1` shrinks the
//! windows; `BENCH_PERF_OUT` overrides the path.

use std::fmt::Write as _;

use analysis::model;
use bench::quick;
use harness::{run_latency, ExperimentConfig, ExperimentResult, ProtocolChoice};
use rsm_core::obs::TraceStage;
use rsm_core::time::MILLIS;
use rsm_core::{LatencyMatrix, ReplicaId};
use rsm_obs::{ObsConfig, Span};
use simnet::ClockModel;

/// Sum-consistency gate: the telescoping term p50s must land within
/// this fraction of the end-to-end p50 (medians do not telescope
/// exactly; a larger gap means the terms describe a different
/// population than the end-to-end number).
const SUM_TOLERANCE_FRAC: f64 = 0.30;

/// Slow-command threshold for the report's slow log (µs): anything
/// past the geo topology's worst honest round trip gets dumped.
const SLOW_US: u64 = 150_000;

fn windows() -> (u64, u64) {
    if quick() {
        (200 * MILLIS, 2_000 * MILLIS)
    } else {
        (500 * MILLIS, 4_000 * MILLIS)
    }
}

/// The geo read-mix scenario of `perf_baseline`, instrumented: full
/// span sampling, slow-command log at [`SLOW_US`].
fn traced_readmix(choice: ProtocolChoice) -> ExperimentResult {
    let (warmup, duration) = windows();
    let cfg = ExperimentConfig::new(geo_matrix())
        .seed(11)
        .clients_per_site(4)
        .think_max_us(20 * MILLIS)
        .read_fraction(0.9)
        .clock(ClockModel::ntp(MILLIS))
        .warmup_us(warmup)
        .duration_us(duration)
        .record_ops(false)
        .observe(ObsConfig::all().slow_threshold(SLOW_US));
    run_latency(choice, &cfg)
}

fn geo_matrix() -> LatencyMatrix {
    LatencyMatrix::uniform(3, 25_000)
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

/// The per-protocol breakdown row.
struct Breakdown {
    protocol: &'static str,
    spans: usize,
    open_spans: usize,
    slow_spans: usize,
    e2e_p50_ms: f64,
    submit_to_propose_ms: f64,
    propose_to_replicate_ms: Option<f64>,
    propose_to_stable_ms: Option<f64>,
    propose_to_commit_ms: f64,
    commit_to_execute_ms: f64,
    execute_to_reply_ms: f64,
    /// Telescoping sum of the sequential terms (compare to `e2e_p50_ms`).
    term_sum_ms: f64,
    /// `analysis` model commit prediction for this protocol on the geo
    /// matrix, median over origin replicas, ms.
    model_commit_ms: f64,
}

fn breakdown(protocol: &'static str, r: &ExperimentResult) -> Breakdown {
    use TraceStage::*;
    let spans = &r.spans;
    let term = |a, b| term_p50_ms(spans, a, b);
    let e2e = term(Submitted, Replied).unwrap_or(0.0);
    let submit_to_propose = term(Submitted, Proposed).unwrap_or(0.0);
    let propose_to_commit = term(Proposed, Committed).unwrap_or(0.0);
    let commit_to_execute = term(Committed, Executed).unwrap_or(0.0);
    let execute_to_reply = term(Executed, Replied).unwrap_or(0.0);
    let slow = spans
        .iter()
        .filter(|s| s.delta(Submitted.index(), Replied.index()) > Some(SLOW_US))
        .count();
    let m = geo_matrix();
    let mut models: Vec<u64> = m
        .replicas()
        .map(|i| match protocol {
            "Clock-RSM" => model::clock_rsm_balanced(&m, i),
            "Paxos" => model::paxos(&m, i, ReplicaId::new(0)),
            _ => model::mencius_bcast_imbalanced(&m, i),
        })
        .collect();
    models.sort_unstable();
    Breakdown {
        protocol,
        spans: spans.len(),
        open_spans: r.open_spans,
        slow_spans: slow,
        e2e_p50_ms: e2e,
        submit_to_propose_ms: submit_to_propose,
        propose_to_replicate_ms: term(Proposed, Replicated),
        propose_to_stable_ms: term(Proposed, Stable),
        propose_to_commit_ms: propose_to_commit,
        commit_to_execute_ms: commit_to_execute,
        execute_to_reply_ms: execute_to_reply,
        term_sum_ms: submit_to_propose + propose_to_commit + commit_to_execute + execute_to_reply,
        model_commit_ms: models[models.len() / 2] as f64 / 1_000.0,
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "null".to_string(),
    }
}

/// Replaces the single-line `"latency_breakdown"` placeholder section of
/// an existing `BENCH_perf.json` in place, or writes a fresh skeleton
/// when the file (or the placeholder) is missing.
fn merge_into(path: &str, breakdown_line: &str) {
    let fresh = || {
        format!(
            "{{\n  \"schema\": \"clock-rsm-repro/perf-baseline/v7\",\n  \"quick\": {},\n\
             {breakdown_line}\n  \"entries\": []\n}}\n",
            quick()
        )
    };
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) if existing.contains("\"latency_breakdown\"") => {
            existing
                .lines()
                .map(|line| {
                    let t = line.trim_start();
                    if t.starts_with("\"latency_breakdown\":") {
                        breakdown_line.to_string()
                    } else {
                        line.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
                + "\n"
        }
        _ => fresh(),
    };
    std::fs::write(path, merged).expect("write BENCH_perf.json");
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let out_path =
        std::env::var("BENCH_PERF_OUT").unwrap_or_else(|_| "BENCH_perf.json".to_string());
    let mut failures: Vec<String> = Vec::new();

    let protocols = [
        ProtocolChoice::clock_rsm(),
        ProtocolChoice::paxos(0),
        ProtocolChoice::mencius(),
    ];

    // The traced geo read-mix runs and their breakdown rows.
    let mut rows: Vec<Breakdown> = Vec::new();
    println!("=== Per-command latency breakdown (geo 3x25ms, 90/10 reads, p50 ms) ===");
    println!(
        "{:<14}{:>7}{:>9}{:>10}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "protocol",
        "spans",
        "sub>prop",
        "prop>repl",
        "prop>stb",
        "prop>cmt",
        "cmt>exec",
        "exec>rpl",
        "sum",
        "e2e",
        "model"
    );
    for choice in &protocols {
        let r = traced_readmix(choice.clone());
        let b = breakdown(r.protocol, &r);

        // Instrumentation-vs-reality cross-check: the executed-command
        // counter must mirror each replica's commit count exactly.
        let metrics = r.metrics.as_ref().expect("observed run has metrics");
        for (i, &commits) in r.commit_counts.iter().enumerate() {
            let counted = metrics
                .counters
                .get(&format!("r{i}.commands.executed"))
                .copied()
                .unwrap_or(0);
            if counted != commits {
                failures.push(format!(
                    "{}: replica {i} executed-counter {counted} != commit count {commits}",
                    b.protocol
                ));
            }
        }

        println!(
            "{:<14}{:>7}{:>9.2}{:>10}{:>9}{:>9.2}{:>9.2}{:>9.2}{:>9.2}{:>9.2}{:>9.2}",
            b.protocol,
            b.spans,
            b.submit_to_propose_ms,
            fmt_opt(b.propose_to_replicate_ms),
            fmt_opt(b.propose_to_stable_ms),
            b.propose_to_commit_ms,
            b.commit_to_execute_ms,
            b.execute_to_reply_ms,
            b.term_sum_ms,
            b.e2e_p50_ms,
            b.model_commit_ms
        );
        if b.slow_spans > 0 {
            eprintln!(
                "{}: {} spans over the {} ms slow threshold ({} open at shutdown)",
                b.protocol,
                b.slow_spans,
                SLOW_US / 1_000,
                b.open_spans
            );
        }

        if b.spans == 0 {
            failures.push(format!("{}: traced run produced no spans", b.protocol));
        }
        // Gate 1: no term exceeds the end-to-end median.
        let terms: [(&str, f64); 4] = [
            ("submit_to_propose", b.submit_to_propose_ms),
            ("propose_to_commit", b.propose_to_commit_ms),
            ("commit_to_execute", b.commit_to_execute_ms),
            ("execute_to_reply", b.execute_to_reply_ms),
        ];
        for (name, v) in terms {
            if v > b.e2e_p50_ms + 1e-3 {
                failures.push(format!(
                    "{}: breakdown term {name} p50 {v:.3} ms exceeds end-to-end \
                     p50 {:.3} ms",
                    b.protocol, b.e2e_p50_ms
                ));
            }
        }
        // Gate 2: telescoping sum consistency.
        if b.e2e_p50_ms > 0.0 {
            let off = (b.term_sum_ms - b.e2e_p50_ms).abs() / b.e2e_p50_ms;
            if off > SUM_TOLERANCE_FRAC {
                failures.push(format!(
                    "{}: term sum {:.3} ms is {:.0}% off the end-to-end p50 {:.3} ms \
                     (tolerance {:.0}%)",
                    b.protocol,
                    b.term_sum_ms,
                    off * 100.0,
                    b.e2e_p50_ms,
                    SUM_TOLERANCE_FRAC * 100.0
                ));
            }
        }
        // Gate 3: Clock-RSM's decomposition, directionally vs the model.
        if b.protocol == "Clock-RSM" {
            let stable = b.propose_to_stable_ms.unwrap_or(0.0);
            let replicate = b.propose_to_replicate_ms.unwrap_or(0.0);
            if stable <= 0.0 {
                failures
                    .push("Clock-RSM: stable-wait term is zero under 25 ms geo delay".to_string());
            }
            let m = geo_matrix();
            let origin = ReplicaId::new(0);
            let model_replicate = 2 * m.median_from(origin);
            let model_stable = m.max_from(origin);
            if (replicate > stable) != (model_replicate > model_stable) {
                failures.push(format!(
                    "Clock-RSM: measured replicate {replicate:.2} ms vs stable {stable:.2} ms \
                     disagrees with the model's ordering ({} µs vs {} µs)",
                    model_replicate, model_stable
                ));
            }
        }
        rows.push(b);
    }

    // Substitute the section in place (a single line, so a rerun
    // substitutes its own output idempotently).
    let mut bl = String::from("  \"latency_breakdown\": [ ");
    for (i, b) in rows.iter().enumerate() {
        let _ = write!(
            bl,
            "{{ \"protocol\": \"{}\", \"spans\": {}, \"e2e_p50_ms\": {:.3}, \
             \"submit_to_propose_ms\": {:.3}, \"propose_to_replicate_ms\": {}, \
             \"propose_to_stable_ms\": {}, \"propose_to_commit_ms\": {:.3}, \
             \"commit_to_execute_ms\": {:.3}, \"execute_to_reply_ms\": {:.3}, \
             \"term_sum_ms\": {:.3}, \"model_commit_ms\": {:.3}, \"slow_spans\": {} }}",
            b.protocol,
            b.spans,
            b.e2e_p50_ms,
            b.submit_to_propose_ms,
            fmt_opt(b.propose_to_replicate_ms),
            fmt_opt(b.propose_to_stable_ms),
            b.propose_to_commit_ms,
            b.commit_to_execute_ms,
            b.execute_to_reply_ms,
            b.term_sum_ms,
            b.model_commit_ms,
            b.slow_spans
        );
        bl.push_str(if i + 1 < rows.len() { ", " } else { " " });
    }
    bl.push_str("],");
    merge_into(&out_path, &bl);
    println!("\nmerged latency_breakdown into {out_path}");

    if !failures.is_empty() {
        eprintln!(
            "\nobs_report{} FAILED:",
            if check { " --check" } else { "" }
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
