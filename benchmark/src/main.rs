//! The repo benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
//!     [--quick] [--repeat <k>]
//! ```
//!
//! Runs the workloads against the threaded runtime (`rsm_runtime::Cluster`,
//! real threads, wall clock), prints every metric by name with its unit,
//! checks the outputs, and ends each run with one JSON result line.
//! `--trace 0` gives the end-to-end metrics, `--trace 1` the per-layer
//! ledger; without `--trace` both run, without `--workload` every
//! workload does. See `README.md` beside this package.

#![forbid(unsafe_code)]

mod layers;
mod loadgen;
mod null;
mod ops;
mod phase;
mod procfs;
mod report;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Duration;

use layers::{Budget, RuntimeFigures};
use phase::{PhaseArgs, PhaseOutput};
use report::{RunResult, END_TO_END, RUN_SECONDS};
use workload::{Proto, Topology, Workload, WORKLOADS};

/// What `--quick` measures for: enough to touch every workload and
/// driver once in well under a minute, too little to quote.
const QUICK_SECONDS: f64 = 1.5;

/// No phase may leave more than this resident, or log compaction is
/// not bounding memory.
const PEAK_RSS_LIMIT_MB: f64 = 1024.0;

/// How far the simulator's geo latency may sit from the runtime's.
const SIM_GEO_TOLERANCE: f64 = 0.03;

/// Writes every site must have completed before a site median is
/// trusted enough to fail a run on (a `--quick` run has fewer).
const MIN_SITE_WRITES: f64 = 5.0;

/// A Unix socket path must fit `sun_path` (108 bytes); the transport
/// appends a file name of up to ~45 bytes to the directory.
const MAX_SOCKET_DIR_LEN: usize = 60;

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--quick] [--repeat <k>] [--print-manifest]";

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
    /// Internal: run one phase in this process and print its lines.
    phase: Option<Proto>,
    print_manifest: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: None,
            repeat: 1,
            phase: None,
            print_manifest: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    args.workload =
                        Some(workload::find(&name).ok_or(format!("no workload {name:?}"))?);
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    args.trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    })
                }
                "--repeat" => {
                    args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                    if args.repeat == 0 {
                        return Err("--repeat must be at least 1".into());
                    }
                }
                "--quick" => args.seconds = QUICK_SECONDS,
                "--phase" => {
                    let name = value()?;
                    args.phase = Some(Proto::find(&name).ok_or(format!("no protocol {name:?}"))?);
                }
                "--print-manifest" => args.print_manifest = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some(proto) = args.phase {
        let Some(workload) = args.workload else {
            eprintln!("--phase needs --workload\n{USAGE}");
            return ExitCode::from(2);
        };
        let out = phase::run(PhaseArgs {
            workload,
            proto,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.trace == Some(true),
        });
        print!("{}", out.to_lines());
        return ExitCode::SUCCESS;
    }

    // Unix sockets are files: keep them under the checkout. Done before
    // any thread exists, as the process environment is not thread-safe.
    let socket_dir = trace::out_dir().join("tmp");
    let uds = socket_dir.as_os_str().len() <= MAX_SOCKET_DIR_LEN
        && std::fs::create_dir_all(&socket_dir).is_ok();
    if uds {
        std::env::set_var("TMPDIR", &socket_dir);
    }

    let workloads: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let modes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    println!(
        "benchmark: {} s per run, seed {}, {} core(s), closed loop: {} client thread(s) x window \
         outstanding, batch 64, checkpoint+compaction every 65536",
        args.seconds,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        loadgen::generator_threads(),
    );
    let mut all_correct = true;
    // (workload, metric) -> one value per repeat, end-to-end only.
    let mut series: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for rep in 0..args.repeat {
        let seed = args.seed + rep as u64;
        for w in &workloads {
            for &traced in &modes {
                println!(
                    "\n== {} · seed {seed} · {} (window {}, {} B values, {:?}, {:?})",
                    w.name,
                    if traced {
                        "per-layer (traced)"
                    } else {
                        "end-to-end (untraced)"
                    },
                    w.load.window,
                    w.load.value_bytes,
                    w.topology,
                    w.transport,
                );
                let result = run_workload(w, seed, args.seconds, traced, uds);
                print!("{}", result.table(traced));
                for e in &result.errors {
                    println!("  CHECK FAILED: {e}");
                }
                all_correct &= result.correct();
                if !traced {
                    for (d, _) in &END_TO_END {
                        let v = result.metrics.get(d.name).copied().unwrap_or(0.0);
                        series.entry((w.name, d.name)).or_default().push(v);
                    }
                }
                println!("{}", result.json_line(traced));
            }
        }
    }
    if args.repeat > 1 && !series.is_empty() {
        all_correct &= print_agreement(&series);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per workload × end-to-end metric over the repeats: median, quartiles
/// and the interquartile range as a share of the median, against the
/// metric's bound. `setup_s` is printed but, as in the acceptance rule,
/// not held to its spread. Returns whether every spread is in bound.
fn print_agreement(series: &BTreeMap<(&str, &str), Vec<f64>>) -> bool {
    println!("\n== agreement over repeats (quartiles as Python's statistics.quantiles, n=4)");
    println!(
        "  {:<18} {:<26} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut ok = true;
    for ((w, name), values) in series {
        let [q1, med, q3] = stats::quartiles(values);
        let spread = stats::relative_spread(values);
        let bound = report::bound(name).expect("end-to-end metric");
        let held = *name != "setup_s";
        let verdict = match (held, spread <= bound) {
            (false, _) => "(not held)",
            (true, true) => "",
            (true, false) => "EXCEEDS BOUND",
        };
        ok &= !held || spread <= bound;
        println!(
            "  {w:<18} {name:<26} {q1:>12.5} {med:>12.5} {q3:>12.5} {:>7.2}% {:>5.0}% {verdict}",
            spread * 100.0,
            bound * 100.0
        );
    }
    ok
}

/// Folds a phase's counts and failed checks into the run's.
fn absorb(result: &mut RunResult, label: &str, out: &PhaseOutput) {
    result.attempted += out.get("attempted") as u64;
    result.failed += out.get("failed") as u64;
    result
        .errors
        .extend(out.errors.iter().map(|e| format!("{label}: {e}")));
    if out.get("peak_rss_mb") > PEAK_RSS_LIMIT_MB {
        result.errors.push(format!(
            "{label}: peak resident set {:.0} MB is over {PEAK_RSS_LIMIT_MB} MB",
            out.get("peak_rss_mb")
        ));
    }
}

/// One run of one workload in one mode.
fn run_workload(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    uds: bool,
) -> RunResult {
    match traced {
        false => run_end_to_end(w, seed, seconds),
        true => run_per_layer(w, seed, seconds, uds),
    }
}

/// The three protocols back to back, a third of the run each.
fn run_end_to_end(w: &'static Workload, seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let mut setup_s = 0.0;
    let mut commit_ms = Vec::new();
    let mut sampled = true;
    for proto in Proto::ALL {
        let out = child_phase(w, proto, seed, seconds / 3.0, false);
        let p = proto.name();
        let m = &mut result.metrics;
        m.insert(format!("{p}.kops"), out.get("kops"));
        m.insert(format!("{p}.commit_ms"), out.get("commit_ms"));
        if proto == Proto::ClockRsm {
            m.insert(
                "clock_rsm.commit_worst_ms".into(),
                out.get("commit_worst_ms"),
            );
        }
        setup_s += out.get("setup_s");
        commit_ms.push(out.get("commit_ms"));
        sampled &= out.get("min_site_writes") >= MIN_SITE_WRITES;
        absorb(&mut result, p, &out);
    }
    result.metrics.insert("setup_s".into(), setup_s);
    // `Proto::ALL` is in the paper's order of geo latency.
    let ordered = commit_ms.windows(2).all(|pair| pair[0] < pair[1]);
    if w.topology == Topology::Geo5 && sampled && !ordered {
        result
            .errors
            .push("geo5: expected Clock-RSM < Paxos-bcast < Mencius-bcast commit latency".into());
    }
    result
}

/// Clock-RSM untraced then traced, a quarter of the run each; the
/// micro-drivers and the simulator take the rest.
fn run_per_layer(w: &'static Workload, seed: u64, seconds: f64, uds: bool) -> RunResult {
    let mut result = RunResult::default();
    let plain = child_phase(w, Proto::ClockRsm, seed, seconds / 4.0, false);
    let spans = child_phase(w, Proto::ClockRsm, seed, seconds / 4.0, true);
    absorb(&mut result, "untraced", &plain);
    absorb(&mut result, "traced", &spans);
    let m = &mut result.metrics;
    for name in [
        "cpu_us_per_op",
        "ctx_switches_per_op",
        "threads",
        "rss_mb",
        "peak_rss_mb",
    ] {
        m.insert(format!("proc.{name}"), plain.get(name));
    }
    for class in ["write", "read"] {
        for stat in ["p50_ms", "tail_ms", "tail_pct", "samples"] {
            let name = format!("{class}_{stat}");
            m.insert(name.clone(), plain.get(&name));
        }
    }
    for (name, value) in &spans.values {
        if ["stage.", "client.", "trace."]
            .iter()
            .any(|p| name.starts_with(p))
        {
            m.insert(name.clone(), *value);
        }
    }
    m.insert("untraced.kops".into(), plain.get("kops"));
    m.insert(
        "untraced.window_turn_ms".into(),
        plain.get("window_turn_ms"),
    );
    m.insert("trace.kops".into(), spans.get("kops"));
    m.insert(
        "obs.overhead_frac".into(),
        1.0 - spans.get("kops") / plain.get("kops"),
    );

    let budget = Budget {
        each: Duration::from_secs_f64(seconds / 160.0),
        uds,
    };
    m.extend(layers::run_all(seed, budget));
    // Per committed command: the origin's step plus the two remote
    // replicas', three applies and three dedup look-ups, and the node
    // loop's own cost at the origin — against the CPU time the
    // process really spent per command.
    let size = match w.load.value_bytes {
        1024.. => "1k",
        _ => "16b",
    };
    let layer = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let accounted_ns = layer("step.clock_rsm.origin_ns_per_cmd.b64")
        + 2.0 * layer("step.clock_rsm.remote_ns_per_cmd.b64")
        + 3.0 * layer(&format!("kvstore.put_ns.{size}"))
        + 3.0 * layer("session.dedup_ns")
        + 1e6 / layer("node.null_kops");
    m.insert(
        "compose.accounted_frac".into(),
        accounted_ns / (plain.get("cpu_us_per_op") * 1e3),
    );

    // The simulator counts committed commands only; so must its base.
    let writes = plain.get("write_samples");
    let write_share = writes / (writes + plain.get("read_samples")).max(1.0);
    let runtime = RuntimeFigures {
        commit_ms: plain.get("window_turn_ms"),
        kops: plain.get("kops") * write_share,
    };
    // A one-at-a-time workload simulates in milliseconds of wall time;
    // a saturated one costs about as much wall time as virtual.
    let virtual_s = match w.load.window {
        1 => 2.0,
        _ => (seconds / RUN_SECONDS as f64).min(1.0),
    };
    let gap = layers::simnet(m, w, seed, virtual_s, runtime);
    let sampled = plain.get("min_site_writes") >= MIN_SITE_WRITES;
    if w.topology == Topology::Geo5 && sampled && gap.abs() > SIM_GEO_TOLERANCE {
        result.errors.push(format!(
            "geo5: simulated commit latency is {:+.1}% off the runtime's (tolerance {:.0}%)",
            gap * 100.0,
            SIM_GEO_TOLERANCE * 100.0
        ));
    }
    result
}

/// Runs one phase in a fresh child process of this executable, so that
/// its peak resident set and CPU time are its own.
fn child_phase(w: &Workload, proto: Proto, seed: u64, seconds: f64, traced: bool) -> PhaseOutput {
    let run = || -> Result<PhaseOutput, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .args(["--phase", proto.name(), "--workload", w.name])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", if traced { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        if !child.status.success() {
            let stderr = String::from_utf8_lossy(&child.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            return Err(format!("{}: {}", child.status, tail.join(" | ")));
        }
        Ok(PhaseOutput::from_lines(&String::from_utf8_lossy(
            &child.stdout,
        )))
    };
    run().unwrap_or_else(|e| PhaseOutput {
        errors: vec![format!("phase did not finish: {e}")],
        ..PhaseOutput::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload geo5 --seed 42 --seconds 24 --trace 1").expect("valid");
        assert_eq!(a.workload.map(|w| w.name), Some("geo5"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.repeat),
            (42, 24.0, Some(true), 1)
        );
        let a = parse("--quick --repeat 3").expect("valid");
        assert_eq!((a.seconds, a.trace, a.repeat), (QUICK_SECONDS, None, 3));
        assert!(a.workload.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--trace 2",
            "--seed",
            "--seconds 0",
            "--repeat 0",
            "--phase raft",
            "--frobnicate",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }
}
