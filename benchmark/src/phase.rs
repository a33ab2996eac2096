//! One workload × protocol phase: set up, load, fence, shut down, check.
//!
//! A phase runs in a child process of its own (so its `VmHWM` and CPU
//! time are its own) and hands its numbers back as text lines.

use std::collections::BTreeMap;
use std::time::Instant;

use clock_rsm::{ClockRsm, ClockRsmConfig};
use kvstore::{KvOp, KvStore};
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use rsm_core::batch::BatchPolicy;
use rsm_core::command::{Command, CommandId};
use rsm_core::config::Membership;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::obs::names::STABLE_LAG_US;
use rsm_core::protocol::Protocol;
use rsm_core::wire::WireMsg;
use rsm_obs::{ObsConfig, Registry};
use rsm_runtime::{Cluster, ClusterConfig};

use crate::loadgen::{drive, Moment, Run, Sample, OP_TIMEOUT};
use crate::ops::{check_snapshot, reply_ok, Op, OpStream};
use crate::stats::{
    median, median_slice_rate, percentile, site_medians, sorted_p50, supported_tail,
};
use crate::workload::{checkpoint_policy, Load, Proto, Workload};
use crate::{procfs, trace};

/// Cluster set-ups timed per phase; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Share of a saturating phase's measured time spent on the latency
/// probe that follows the saturated window.
const PROBE_SHARE: f64 = 0.15;

/// What a phase reports: named numbers, and the checks that failed.
#[derive(Debug, Default)]
pub struct PhaseOutput {
    pub values: BTreeMap<String, f64>,
    pub errors: Vec<String>,
}

impl PhaseOutput {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// One `M <name> <value>` line per number, one `E <text>` per error.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            out.push_str(&format!("M {name} {value:?}\n"));
        }
        for e in &self.errors {
            out.push_str(&format!("E {}\n", e.replace('\n', " ")));
        }
        out
    }

    /// Inverse of [`to_lines`](PhaseOutput::to_lines); lines of any
    /// other shape are ignored (a dependency may print).
    pub fn from_lines(text: &str) -> PhaseOutput {
        let mut out = PhaseOutput::default();
        for line in text.lines() {
            if let Some(e) = line.strip_prefix("E ") {
                out.errors.push(e.to_string());
            } else if let Some((name, value)) = line
                .strip_prefix("M ")
                .and_then(|rest| rest.split_once(' '))
            {
                if let Ok(v) = value.parse() {
                    out.set(name, v);
                }
            }
        }
        out
    }
}

#[derive(Debug, Clone, Copy)]
pub struct PhaseArgs {
    pub workload: &'static Workload,
    pub proto: Proto,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
}

pub fn run(args: PhaseArgs) -> PhaseOutput {
    let n = args.workload.topology.matrix().len() as u16;
    let members = move || Membership::uniform(n);
    let checkpoints = checkpoint_policy();
    match args.proto {
        Proto::ClockRsm => run_with(args, |id| {
            let cfg = ClockRsmConfig::default().with_checkpoint(checkpoints);
            ClockRsm::new(id, members(), cfg)
        }),
        Proto::Paxos => run_with(args, |id| {
            MultiPaxos::new(id, members(), ReplicaId::new(0), PaxosVariant::Bcast)
                .with_checkpoints(checkpoints)
        }),
        Proto::Mencius => run_with(args, |id| {
            MenciusBcast::new(id, members()).with_checkpoints(checkpoints)
        }),
    }
}

fn run_with<P>(args: PhaseArgs, factory: impl Fn(ReplicaId) -> P) -> PhaseOutput
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg,
{
    let (workload, w) = (args.workload, &args.workload.load);
    let matrix = workload.topology.matrix();
    let sites = matrix.len();
    let epoch = Instant::now();
    let mut cfg = ClusterConfig::new(matrix)
        .batch_policy(BatchPolicy::max(64))
        .transport(workload.transport)
        .epoch(epoch);
    if args.traced {
        // Every command of a one-at-a-time workload; one in sixteen
        // under saturation, where the tracer's lock would otherwise be
        // the workload.
        let shift = if w.window > 1 { 4 } else { 0 };
        cfg = cfg.observe(ObsConfig::all().sample_shift(shift));
    }
    let mut out = PhaseOutput::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up: spawn to first acknowledged command, several times over;
    // the last cluster is the one the load runs against.
    let setup_stream = OpStream::new(args.seed, usize::MAX, w.keys, 0, w.value_bytes);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut cluster = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = cluster.take() {
            Cluster::shutdown(previous);
        }
        let t0 = Instant::now();
        let c = Cluster::spawn(cfg.clone(), &factory, || Box::new(KvStore::new()));
        let op = Op::Put {
            key: 0,
            nonce: rep as u64,
        };
        let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0x1000), 1);
        let reply = c.execute_command(
            ReplicaId::new(0),
            Command::new(id, setup_stream.payload(op)),
            OP_TIMEOUT,
        );
        setups.push(t0.elapsed().as_secs_f64());
        attempted += 1;
        if !reply.is_ok_and(|r| reply_ok(op, &r.result, w.value_bytes)) {
            failed += 1;
            out.errors
                .push(format!("set-up {rep}: first command failed"));
        }
        cluster = Some(c);
    }
    let cluster = cluster.expect("SETUP_REPS > 0");
    out.set("setup_s", median(&setups));

    // Load: warm up, then measure. A window of many commands measures
    // throughput, but the time to turn it around is that same number
    // again (and as noisy); commit latency is what a lone command
    // sees, so a saturating workload ends with a short one-at-a-time
    // probe of the still-warm cluster, carved out of its seconds.
    let probe_s = match w.window {
        1 => 0.0,
        _ => args.seconds * PROBE_SHARE,
    };
    let mut marks = Vec::with_capacity(2);
    let mut stable_lag = Vec::new();
    let mut rss_mb = Vec::new();
    let seconds = args.seconds - probe_s;
    let run = Run {
        sites,
        load: w,
        seed: args.seed,
        first_client: 1,
        epoch,
    };
    let (mut logs, window_us) = drive(&cluster, run, seconds, |m| {
        if m == Moment::Tick {
            rss_mb.push(procfs::rss_mb());
            if let Some(lag) = cluster.registry().and_then(|r| mean_stable_lag(r, sites)) {
                stable_lag.push(lag);
            }
        } else {
            marks.push(Marks::now());
        }
    });
    let (start, end) = (&marks[0], &marks[1]);
    let mut latency_window_us = window_us.clone();
    if probe_s > 0.0 {
        let lone = Load { window: 1, ..*w };
        let probe = Run {
            load: &lone,
            first_client: 1 + logs.len() as u32,
            ..run
        };
        // `drive` warms up for a quarter of what it measures: 0.2 + 0.8.
        let (probe_logs, probe_us) = drive(&cluster, probe, probe_s * 0.8, |_| {});
        logs.extend(probe_logs);
        latency_window_us = probe_us;
    }

    // Fence: a replicated Get through every site is ordered after
    // everything acknowledged so far, and its reply proves that site
    // executed it; a local read through every site then proves each
    // has executed all of those Gets too. After both rounds every
    // replica has executed the same commands, so shutdown races nothing.
    let fence = KvOp::get("fence").encode();
    for replicated in [true, false] {
        let replies: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..sites as u16)
                .map(|i| {
                    let (cluster, fence) = (&cluster, fence.clone());
                    s.spawn(move || match replicated {
                        true => cluster.execute(ReplicaId::new(i), fence, OP_TIMEOUT),
                        false => cluster.read(ReplicaId::new(i), fence, OP_TIMEOUT),
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for (site, reply) in replies.into_iter().enumerate() {
            attempted += 1;
            if !matches!(reply, Ok(Ok(r)) if r.result[..] == [0]) {
                failed += 1;
                out.errors.push(format!("fence through site {site} failed"));
            }
        }
    }
    let tracer = cluster.tracer().cloned();
    let registry = cluster.registry().cloned();
    let reports = cluster.shutdown();

    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let issued: u64 = samples.iter().map(|s| s.ops).sum();
    attempted += issued;
    failed += samples.iter().filter(|s| !s.ok).map(|s| s.ops).sum::<u64>();
    out.set("attempted", attempted as f64);
    out.set("failed", failed as f64);

    // Checks: replicas agree, executed everything acknowledged, and
    // hold only values the clients wrote.
    let writes_issued: u64 = samples.iter().filter(|s| !s.read).map(|s| s.ops).sum();
    let writes_acked: u64 = samples
        .iter()
        .filter(|s| !s.read && s.ok)
        .map(|s| s.ops)
        .sum();
    let expected = writes_issued + 1 + sites as u64;
    for r in &reports {
        if r.snapshot != reports[0].snapshot {
            out.errors
                .push(format!("replica {:?} snapshot differs", r.id));
        }
        if r.commit_count != reports[0].commit_count || r.commit_count < writes_acked {
            out.errors.push(format!(
                "replica {:?} executed {} commands, replica 0 {}, acknowledged {writes_acked}",
                r.id, r.commit_count, reports[0].commit_count
            ));
        }
        if failed == 0 && r.commit_count != expected {
            out.errors.push(format!(
                "replica {:?} executed {} commands, clients issued {expected}",
                r.id, r.commit_count
            ));
        }
    }
    if let Err(e) = check_snapshot(&reports[0].snapshot, w.keys, w.value_bytes) {
        out.errors.push(e);
    }

    // Metrics of the measured window.
    let measured: Vec<Sample> = samples
        .iter()
        .copied()
        .filter(|s| s.ok && window_us.contains(&s.done_us))
        .collect();
    let acks: Vec<(u64, u64)> = measured.iter().map(|s| (s.done_us, s.ops)).collect();
    out.set(
        "kops",
        median_slice_rate(&acks, window_us.start, window_us.end, 1_000_000) / 1e3,
    );
    // How long a whole window takes to turn around (a lone command's
    // latency when the window is one): what a closed-loop client of
    // the simulator sees, so what its prediction is compared with.
    let write_latencies_by_site = |samples: &[Sample]| {
        let mut by_site = vec![Vec::new(); sites];
        for s in samples.iter().filter(|s| !s.read) {
            by_site[s.site].push(s.latency_us);
        }
        by_site
    };
    if let Some((mean_us, _)) = site_medians(&write_latencies_by_site(&measured)) {
        out.set("window_turn_ms", mean_us / 1e3);
    }
    let timed: Vec<Sample> = samples
        .iter()
        .copied()
        .filter(|s| s.ok && latency_window_us.contains(&s.done_us))
        .collect();
    let writes_by_site = write_latencies_by_site(&timed);
    let fewest = writes_by_site.iter().map(Vec::len).min().unwrap_or(0);
    out.set("min_site_writes", fewest as f64);
    match site_medians(&writes_by_site) {
        Some((mean_us, worst_us)) => {
            out.set("commit_ms", mean_us / 1e3);
            out.set("commit_worst_ms", worst_us as f64 / 1e3);
        }
        None => out.errors.push("no write completed in the window".into()),
    }
    for (class, read) in [("write", false), ("read", true)] {
        let lat: Vec<u64> = timed
            .iter()
            .filter(|s| s.read == read)
            .map(|s| s.latency_us)
            .collect();
        out.set(&format!("{class}_samples"), lat.len() as f64);
        if let Some((sorted, p50)) = sorted_p50(&lat) {
            out.set(&format!("{class}_p50_ms"), p50 as f64 / 1e3);
            if let Some(p) = supported_tail(sorted.len()) {
                out.set(&format!("{class}_tail_pct"), p * 100.0);
                out.set(
                    &format!("{class}_tail_ms"),
                    percentile(&sorted, p) as f64 / 1e3,
                );
            }
        }
    }
    let ops: u64 = acks.iter().map(|&(_, n)| n).sum();
    out.set(
        "cpu_us_per_op",
        (end.cpu_us - start.cpu_us) as f64 / ops.max(1) as f64,
    );
    out.set(
        "ctx_switches_per_op",
        (end.ctx_switches - start.ctx_switches) as f64 / ops.max(1) as f64,
    );
    out.set("threads", end.threads as f64);
    out.set("rss_mb", median(&rss_mb));
    out.set("peak_rss_mb", procfs::peak_rss_mb());

    if let (Some(tracer), Some(registry)) = (tracer, registry) {
        let spans = tracer.completed();
        let client_spans: Vec<_> = logs.iter().flat_map(|l| l.spans.iter().copied()).collect();
        trace::stage_metrics(&mut out, &spans, &client_spans, window_us);
        out.set("trace.dropped_spans", tracer.dropped() as f64);
        let snap = registry.snapshot();
        let total = |suffix: &str| -> f64 {
            (0..sites)
                .filter_map(|i| snap.counters.get(&format!("r{i}.{suffix}")))
                .sum::<u64>() as f64
        };
        let executed = reports[0].commit_count.max(1) as f64;
        out.set(
            "trace.frames_per_cmd",
            total("transport.frames_sent") / executed,
        );
        out.set(
            "trace.wire_bytes_per_cmd",
            total("transport.bytes_sent") / executed,
        );
        if !stable_lag.is_empty() {
            out.set("trace.stable_lag_us", median(&stable_lag));
        }
        if let Err(e) = trace::write_file(workload.name, args.proto.name(), &spans, &client_spans) {
            out.errors.push(format!("trace file: {e}"));
        }
    }
    out
}

/// Process counters at one instant of the run.
struct Marks {
    cpu_us: u64,
    ctx_switches: u64,
    threads: u64,
}

impl Marks {
    fn now() -> Marks {
        Marks {
            cpu_us: procfs::cpu_us(),
            ctx_switches: procfs::ctx_switches(),
            threads: procfs::threads(),
        }
    }
}

/// Mean over the replicas of Clock-RSM's stable-timestamp lag gauge;
/// `None` under the other protocols, which do not publish it.
fn mean_stable_lag(registry: &Registry, sites: usize) -> Option<f64> {
    let snap = registry.snapshot();
    let lags: Vec<f64> = (0..sites)
        .filter_map(|i| snap.gauges.get(&format!("r{i}.{STABLE_LAG_US}")))
        .map(|&v| v as f64)
        .collect();
    (!lags.is_empty()).then(|| lags.iter().sum::<f64>() / lags.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_output_survives_the_pipe() {
        let mut out = PhaseOutput::default();
        out.set("kops", 215.04);
        out.set("setup_s", 0.001_119_54);
        out.set("stage.commit_to_reply_ms", 1e-3);
        out.errors.push("replica r2 snapshot differs\nbadly".into());
        let text = format!("noise from a dependency\n{}", out.to_lines());
        let back = PhaseOutput::from_lines(&text);
        assert_eq!(back.values, out.values);
        assert_eq!(back.errors, ["replica r2 snapshot differs badly"]);
        assert_eq!(back.get("absent"), 0.0);
    }
}
