//! The metric catalogue — every name, unit, direction and regression
//! bound — and the two texts generated from it: the result line of a
//! run and `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::workload::WORKLOADS;

/// Seconds one run measures; the three protocol phases share it.
pub const RUN_SECONDS: u64 = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, with the share of the parent's
/// median by which each may get worse before a change is rejected.
/// Every workload reports every one of them, from untraced runs.
pub const END_TO_END: [(MetricDef, f64); 8] = [
    (higher("clock_rsm.kops", "kops/s"), 0.25),
    (higher("paxos.kops", "kops/s"), 0.25),
    (higher("mencius.kops", "kops/s"), 0.25),
    (lower("clock_rsm.commit_ms", "ms"), 0.25),
    (lower("paxos.commit_ms", "ms"), 0.25),
    (lower("mencius.commit_ms", "ms"), 0.25),
    (lower("clock_rsm.commit_worst_ms", "ms"), 0.25),
    (lower("setup_s", "s"), 0.25),
];

/// Single layers, from the traced run and the micro-drivers. No bounds:
/// they explain a move of an end-to-end metric, they do not gate.
pub const PER_LAYER: [MetricDef; 75] = [
    // rsm_core::wire
    lower("wire.encode_ns.prepare_batch64_1k", "ns"),
    lower("wire.decode_ns.prepare_batch64_1k", "ns"),
    higher("wire.encode_mb_s", "MB/s"),
    higher("wire.decode_mb_s", "MB/s"),
    lower("wire.encode_ns.prepare_ok", "ns"),
    lower("wire.decode_ns.prepare_ok", "ns"),
    higher("wire.checksum_mb_s", "MB/s"),
    lower("wire.frame_header_ns", "ns"),
    // clock-rsm, paxos, mencius: bare protocol cores
    lower("step.clock_rsm.origin_ns_per_cmd.b64", "ns"),
    lower("step.clock_rsm.remote_ns_per_cmd.b64", "ns"),
    lower("step.clock_rsm.remote_ns_per_cmd.b1", "ns"),
    lower("step.clock_rsm.msgs_per_cmd.b64", "count"),
    lower("step.clock_rsm.bytes_per_cmd.b64", "B"),
    lower("step.paxos.origin_ns_per_cmd.b64", "ns"),
    lower("step.paxos.remote_ns_per_cmd.b64", "ns"),
    lower("step.paxos.remote_ns_per_cmd.b1", "ns"),
    lower("step.paxos.msgs_per_cmd.b64", "count"),
    lower("step.paxos.bytes_per_cmd.b64", "B"),
    lower("step.mencius.origin_ns_per_cmd.b64", "ns"),
    lower("step.mencius.remote_ns_per_cmd.b64", "ns"),
    lower("step.mencius.remote_ns_per_cmd.b1", "ns"),
    lower("step.mencius.msgs_per_cmd.b64", "count"),
    lower("step.mencius.bytes_per_cmd.b64", "B"),
    // kvstore, rsm_core::session
    lower("kvstore.put_ns.16b", "ns"),
    lower("kvstore.put_ns.1k", "ns"),
    lower("kvstore.get_ns", "ns"),
    lower("kvstore.snapshot_ms.2048x1k", "ms"),
    lower("kvstore.restore_ms.2048x1k", "ms"),
    lower("session.dedup_ns", "ns"),
    // rsm-runtime under a protocol that orders nothing
    higher("node.null_kops", "kops/s"),
    lower("node.null_rtt_us", "us"),
    lower("net.inproc_hop_us", "us"),
    lower("net.tcp_hop_us", "us"),
    lower("net.uds_hop_us", "us"),
    // rsm-transport, no protocol attached
    higher("transport.tcp.frames_per_s.64b", "1/s"),
    higher("transport.tcp.mb_s.64k", "MB/s"),
    higher("transport.uds.frames_per_s.64b", "1/s"),
    higher("transport.uds.mb_s.64k", "MB/s"),
    // the untraced Clock-RSM phase of this workload, from /proc
    lower("proc.cpu_us_per_op", "us"),
    lower("proc.ctx_switches_per_op", "count"),
    lower("proc.threads", "count"),
    lower("proc.rss_mb", "MB"),
    lower("proc.peak_rss_mb", "MB"),
    // the same phase's client-side latency split
    lower("write_p50_ms", "ms"),
    lower("write_tail_ms", "ms"),
    higher("write_tail_pct", "%"),
    higher("write_samples", "count"),
    lower("read_p50_ms", "ms"),
    lower("read_tail_ms", "ms"),
    higher("read_tail_pct", "%"),
    higher("read_samples", "count"),
    // simnet and analysis predicting this workload
    higher("simnet.virt_s_per_wall_s", "1/s"),
    higher("simnet.cmds_per_wall_s", "1/s"),
    lower("simnet.clock_rsm.commit_ms", "ms"),
    higher("simnet.clock_rsm.kops_virtual", "kops/s"),
    lower("simnet.commit_vs_runtime_frac", "frac"),
    lower("simnet.kops_vs_runtime_frac", "frac"),
    lower("analysis.clock_rsm.model_ms", "ms"),
    // the traced Clock-RSM phase: program spans
    lower("stage.submit_to_propose_ms", "ms"),
    lower("stage.propose_to_replicate_ms", "ms"),
    lower("stage.propose_to_stable_ms", "ms"),
    lower("stage.propose_to_commit_ms", "ms"),
    lower("stage.commit_to_reply_ms", "ms"),
    // ... joined with the benchmark's own client spans
    lower("client.call_to_submitted_ms", "ms"),
    lower("client.replied_to_return_ms", "ms"),
    higher("trace.spans", "count"),
    lower("trace.dropped_spans", "count"),
    lower("trace.frames_per_cmd", "count"),
    lower("trace.wire_bytes_per_cmd", "B"),
    lower("trace.stable_lag_us", "us"),
    higher("trace.kops", "kops/s"),
    // traced against untraced, and layers against the whole
    lower("obs.overhead_frac", "frac"),
    higher("compose.accounted_frac", "frac"),
    higher("untraced.kops", "kops/s"),
    lower("untraced.window_turn_ms", "ms"),
];

/// The definition of `name` among the metrics a run in this mode reports.
pub fn defs(traced: bool) -> Vec<MetricDef> {
    match traced {
        false => END_TO_END.iter().map(|(d, _)| *d).collect(),
        true => PER_LAYER.to_vec(),
    }
}

/// The regression bound of an end-to-end metric.
pub fn bound(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|(d, _)| d.name == name)
        .map(|&(_, b)| b)
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The named table a person reads: one metric per line.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        for d in defs(traced) {
            let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
            let bound = bound(d.name).map_or(String::new(), |b| {
                format!("  [may worsen {:.0}%]", b * 100.0)
            });
            let _ = writeln!(out, "  {:<40} {:>16.6} {}{bound}", d.name, v, d.unit);
        }
        out
    }

    /// The result line: one JSON object holding exactly the metrics of
    /// this mode, each with all the digits it was measured with.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = defs(traced)
            .iter()
            .map(|d| {
                let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
                // JSON has no NaN; a ratio over a phase that failed is 0.
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The text of `BENCHMARK.json`, generated so that the manifest and the
/// program cannot name different metrics (a test compares the file).
pub fn manifest() -> String {
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(d, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                d.name,
                d.unit,
                better(d.better)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better(d.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_fits_the_contract() {
        let mut seen = HashSet::new();
        let all = END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER.iter());
        for d in all {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|&(_, b)| b > 0.0 && b <= 0.25));
        let setup = END_TO_END.iter().find(|(d, _)| d.name == "setup_s");
        let (setup, bound) = setup.expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|&(_, b)| b <= *bound));
        assert!(manifest().len() < 64 << 10);
    }

    #[test]
    fn manifest_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with --print-manifest");
    }

    #[test]
    fn result_line_holds_exactly_the_modes_metrics() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        r.metrics.insert("setup_s".into(), 0.0012);
        r.metrics.insert("wire.frame_header_ns".into(), 9.5);
        let line = r.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0012, \"unit\": \"s\"}"));
        assert!(!line.contains("wire.frame_header_ns"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        r.errors.push("x".into());
        assert!(r.json_line(true).starts_with("{\"correct\": false"));
        assert_eq!(
            r.json_line(true).matches("\"value\"").count(),
            PER_LAYER.len()
        );
    }
}
