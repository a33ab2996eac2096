//! The paper reproduction: every table and figure of the evaluation
//! (Section VI) plus the ablations, from one table-driven binary, in
//! virtual time.
//!
//! ```text
//! repro <name>…   run the named entries, in the order given
//! repro all       the fifteen paper entries, in paper order
//! repro list      print the names
//! ```
//!
//! `batch_sweep` runs by name only (90 s even under `BENCH_QUICK=1`).
//! The entries print; `tests/paper_claims.rs` asserts the paper's shapes.

use std::process::ExitCode;

use analysis::ec2::{self, Site};
use analysis::model::{self, ProtocolKind};
use analysis::numeric;
use bench::{quick, with_windows};
use clock_rsm::ClockRsmConfig;
use harness::{
    run_latency, run_throughput, ExperimentConfig, ExperimentResult, LatencyStats, ProtocolChoice,
};
use rsm_core::time::MILLIS;
use rsm_core::{BatchPolicy, LatencyMatrix, ReplicaId};
use simnet::{ClockModel, CpuModel};

type Entry = (&'static str, fn());

/// Everything `repro` can run, in paper order (`crates/bench/src/lib.rs`
/// says what each reproduces).
const TABLE: &[Entry] = &[
    ("table2", table2),
    ("table3", table3),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table4", table4),
    ("fig8", fig8),
    ("ablation_delta", ablation_delta),
    ("ablation_skew", ablation_skew),
    ("ablation_jitter", ablation_jitter),
    ("ablation_batching", ablation_batching),
    ("batch_sweep", batch_sweep),
];

/// The one entry `all` leaves out: it takes 90 s even in quick mode.
const BY_NAME_ONLY: &str = "batch_sweep";

/// Expands the command line into table entries: `all` stands for the
/// paper entries, anything else must be a name in the table. `None`
/// when nothing is named or a name is unknown.
fn select(args: &[String]) -> Option<Vec<&'static Entry>> {
    let mut picked = Vec::new();
    for a in args {
        if a == "all" {
            picked.extend(TABLE.iter().filter(|e| e.0 != BY_NAME_ONLY));
        } else {
            picked.push(TABLE.iter().find(|e| e.0 == a)?);
        }
    }
    (!picked.is_empty()).then_some(picked)
}

fn usage() -> String {
    let names: Vec<&str> = TABLE.iter().map(|e| e.0).collect();
    format!(
        "usage: repro <name>… | all | list\nnames: {}",
        names.join(" ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(entries) = select(&args) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let all = args.iter().any(|a| a == "all");
    for (name, run) in entries {
        if all {
            println!("\n########## {name} ##########");
        }
        run();
    }
    if all {
        println!(
            "\nAll tables and figures reproduced. tests/paper_claims.rs asserts the paper's shapes."
        );
    }
    ExitCode::SUCCESS
}

// ---- shared pieces -------------------------------------------------------

type Deployment = (Vec<Site>, LatencyMatrix);

/// The four protocols in the paper's legend order (Figures 1–6), the
/// two Paxos variants led from replica `leader`.
fn four(leader: u16) -> [ProtocolChoice; 4] {
    [
        ProtocolChoice::paxos(leader),
        ProtocolChoice::mencius(),
        ProtocolChoice::paxos_bcast(leader),
        ProtocolChoice::clock_rsm(),
    ]
}

/// The same four in the throughput tables' row order (Figure 8).
fn four_by_throughput() -> [ProtocolChoice; 4] {
    let [paxos, mencius, paxos_bcast, clock_rsm] = four(0);
    [clock_rsm, mencius, paxos, paxos_bcast]
}

/// One latency run that must come back with a clean checker report.
fn checked(choice: ProtocolChoice, cfg: &ExperimentConfig) -> ExperimentResult {
    let name = choice.name();
    let r = run_latency(choice, cfg);
    assert!(r.checks.all_ok(), "{name}: {:?}", r.checks.violation);
    r
}

fn index_of(sites: &[Site], site: Site) -> usize {
    sites
        .iter()
        .position(|&s| s == site)
        .expect("site deployed")
}

/// The one formatter every per-site latency cell goes through: `fmt` of
/// the site's (mean, p95) in ms, or `-` when the site recorded no sample
/// inside the window — an empty sample set is not a 0.0 ms latency.
fn cell(s: &mut LatencyStats, fmt: impl FnOnce(f64, f64) -> String) -> String {
    if s.is_empty() {
        "-".to_string()
    } else {
        fmt(s.mean_ms(), s.percentile_ms(95.0))
    }
}

/// Prints a per-site `avg (p95)` table, one row per protocol — the shape
/// of Figures 1, 2, and 5.
fn print_latency_table(
    title: &str,
    sites: &[Site],
    rows: &mut [(&'static str, Vec<LatencyStats>)],
) {
    println!("\n=== {title} ===");
    print!("{:<16}", "protocol");
    for s in sites {
        print!("{:>16}", s.name());
    }
    println!();
    for (name, stats) in rows.iter_mut() {
        print!("{name:<16}");
        for s in stats.iter_mut() {
            print!("{:>16}", cell(s, |avg, p95| format!("{avg:.1} ({p95:.1})")));
        }
        println!();
    }
    println!("(per-site commit latency ms: average (95th percentile))");
}

/// Prints CDF series side by side — the shape of Figures 3, 4, and 6.
fn print_cdf_table(title: &str, series: &mut [(&'static str, LatencyStats)], points: usize) {
    println!("\n=== {title} ===");
    print!("{:<10}", "CDF%");
    for (name, _) in series.iter() {
        print!("{name:>16}");
    }
    println!();
    let cdfs: Vec<Vec<(f64, f64)>> = series.iter_mut().map(|(_, s)| s.cdf(points)).collect();
    for i in 0..points {
        let frac = i as f64 / (points - 1) as f64;
        print!("{:<10.0}", frac * 100.0);
        for cdf in &cdfs {
            match cdf.get(i) {
                Some((ms, _)) => print!("{ms:>16.1}"),
                None => print!("{:>16}", "-"),
            }
        }
        println!();
    }
    println!("(latency ms at each percentile)");
}

/// Figures 1 and 2: average and 95th-percentile commit latency at every
/// replica under a **balanced** workload, with the Paxos/Paxos-bcast
/// leader at CA (panel a) and VA (panel b).
fn balanced(figure: &str, count: &str, (sites, matrix): Deployment) {
    let cfg = with_windows(ExperimentConfig::new(matrix));
    let row = |choice: ProtocolChoice| (choice.name(), checked(choice, &cfg).site_stats);
    // Clock-RSM and Mencius-bcast have no leader: one run serves both
    // panels.
    let [_, mencius, _, clock_rsm] = four(0);
    let (mencius, clock_rsm) = (row(mencius), row(clock_rsm));
    for (panel, leader) in [("(a) leader at CA", 0), ("(b) leader at VA", 1)] {
        let [paxos, _, paxos_bcast, _] = four(leader);
        print_latency_table(
            &format!("{figure}{panel}: {count} replicas, balanced workload"),
            &sites,
            &mut [
                row(paxos),
                mencius.clone(),
                row(paxos_bcast),
                clock_rsm.clone(),
            ],
        );
    }
}

/// Figures 3, 4 and 6: the commit latency distribution at one replica,
/// under a balanced workload or with clients at that replica only.
fn cdf_at(title: &str, (sites, matrix): Deployment, leader: u16, site: Site, only_there: bool) {
    let at = index_of(&sites, site);
    let mut cfg = with_windows(ExperimentConfig::new(matrix));
    if only_there {
        cfg = cfg.active_sites(vec![at as u16]);
    }
    let mut series = four(leader).map(|choice| {
        let name = choice.name();
        (name, checked(choice, &cfg).site_stats.swap_remove(at))
    });
    print_cdf_table(title, &mut series, 21);
}

// ---- the entries ---------------------------------------------------------

/// Table II: message steps, message complexity, and commit latency
/// formulas of the four protocols — printed symbolically and evaluated on
/// the five-site deployment of Figure 1.
fn table2() {
    println!("\n=== Table II: steps, complexity, latency formulas ===\n");
    let rows = [
        (
            ProtocolKind::Paxos,
            "leader: 2*median_k d(l,k) | non-leader: 2*d(i,l) + 2*median_k d(l,k)",
        ),
        (
            ProtocolKind::PaxosBcast,
            "leader: 2*median_k d(l,k) | non-leader: d(i,l) + median_k(d(l,k)+d(k,i))",
        ),
        (
            ProtocolKind::MenciusBcast,
            "imbalanced: 2*max_k d(i,k) | balanced: [q, q + max_k d(i,k)], q = Clock-RSM",
        ),
        (
            ProtocolKind::ClockRsm,
            "imbalanced: max(2*median_k d(i,k), max_k d(i,k)) | balanced: max(..., max_j median_k(d(j,k)+d(k,i)))",
        ),
    ];
    println!("{:<16}{:<8}{:<8}latency", "protocol", "steps", "msgs");
    for (p, formula) in rows {
        let (steps, complexity) = model::table2_meta(p);
        println!("{:<16}{:<8}{:<8}{}", p.name(), steps, complexity, formula);
    }

    // Evaluate on the Figure 1 deployment with the leader at VA.
    let (sites, m) = ec2::five_site_deployment();
    let leader = ReplicaId::new(index_of(&sites, Site::VA) as u16);
    println!("\nEvaluated on {{CA VA IR JP SG}} (leader VA), per-replica commit latency (ms):");
    println!(
        "{:<8}{:>10}{:>14}{:>18}{:>22}",
        "site", "Paxos", "Paxos-bcast", "Clock-RSM (bal.)", "Mencius (bal. bounds)"
    );
    for (i, site) in sites.iter().enumerate() {
        let r = ReplicaId::new(i as u16);
        let (lo, hi) = model::mencius_bcast_balanced_bounds(&m, r);
        println!(
            "{:<8}{:>10.1}{:>14.1}{:>18.1}{:>14.1}-{:<7.1}",
            site.name(),
            model::paxos(&m, r, leader) as f64 / 1000.0,
            model::paxos_bcast(&m, r, leader) as f64 / 1000.0,
            model::clock_rsm_balanced(&m, r) as f64 / 1000.0,
            lo as f64 / 1000.0,
            hi as f64 / 1000.0,
        );
    }
}

/// Table III: the average round-trip latencies between EC2 data centers
/// that drive both the analytical model and the simulator.
fn table3() {
    println!("\n=== Table III: average RTT (ms) between EC2 data centers ===\n");
    print!("{:<6}", "");
    for s in ec2::ALL_SITES {
        print!("{:>7}", s.name());
    }
    println!();
    for (i, row) in ec2::RTT_MS.iter().enumerate() {
        print!("{:<6}", ec2::ALL_SITES[i].name());
        for v in row {
            print!("{v:>7.0}");
        }
        println!();
    }
    println!("\nThe simulator uses one-way latency = RTT/2 (symmetric links),");
    println!("exactly as the paper's latency analysis assumes (Section IV).");
}

fn fig1() {
    balanced("Figure 1", "five", ec2::five_site_deployment());
}

/// The three-replica special case where Paxos-bcast matches Clock-RSM.
fn fig2() {
    balanced("Figure 2", "three", ec2::three_site_deployment());
}

fn fig3() {
    cdf_at(
        "Figure 3: latency CDF at JP (five replicas, leader CA, balanced)",
        ec2::five_site_deployment(),
        0,
        Site::JP,
        false,
    );
}

fn fig4() {
    cdf_at(
        "Figure 4: latency CDF at CA (three replicas, leader VA, balanced)",
        ec2::three_site_deployment(),
        1,
        Site::CA,
        false,
    );
}

/// Figure 5: average and 95th-percentile commit latency at each of five
/// replicas under an **imbalanced** workload — only one replica serves
/// clients per run; the Paxos/Paxos-bcast leader is at CA.
fn fig5() {
    let (sites, matrix) = ec2::five_site_deployment();
    let mut rows = four(0).map(|choice| {
        // One run per origin site: clients only at that site.
        let stats = (0..sites.len())
            .map(|origin| {
                let cfg = with_windows(ExperimentConfig::new(matrix.clone()))
                    .active_sites(vec![origin as u16]);
                checked(choice.clone(), &cfg).site_stats.swap_remove(origin)
            })
            .collect();
        (choice.name(), stats)
    });
    print_latency_table(
        "Figure 5: five replicas, imbalanced workload (leader at CA)",
        &sites,
        &mut rows,
    );
}

fn fig6() {
    cdf_at(
        "Figure 6: latency CDF at SG (five replicas, imbalanced, leader CA)",
        ec2::five_site_deployment(),
        0,
        Site::SG,
        true,
    );
}

/// Figure 7: average commit latency over **all** combinations of 3, 5,
/// and 7 EC2 data centers (numerical evaluation of the Table II
/// formulas). "all" averages over every replica of every group; "highest"
/// averages each group's worst replica. Paxos-bcast uses the best leader
/// per group.
fn fig7() {
    println!("\n=== Figure 7: average commit latency over all DC combinations ===");
    println!(
        "{:<12}{:>10}{:>18}{:>16}{:>22}{:>20}",
        "groups",
        "count",
        "Paxos-bcast all",
        "Clock-RSM all",
        "Paxos-bcast highest",
        "Clock-RSM highest"
    );
    for size in [3usize, 5, 7] {
        let s = numeric::sweep(size);
        println!(
            "{:<12}{:>10}{:>18.1}{:>16.1}{:>22.1}{:>20.1}",
            format!("{size} replicas"),
            s.group_count,
            s.avg_all_paxos_bcast_ms,
            s.avg_all_clock_rsm_ms,
            s.avg_highest_paxos_bcast_ms,
            s.avg_highest_clock_rsm_ms,
        );
    }
    println!("(latency in ms; paper Figure 7 shows the same four bars per group size)");
}

/// Table IV: latency reduction of Clock-RSM over Paxos-bcast across all
/// EC2 data-center combinations. Negative reduction means Clock-RSM
/// provides higher latency (typically at the Paxos-bcast leader).
fn table4() {
    println!("\n=== Table IV: latency reduction of Clock-RSM over Paxos-bcast ===");
    println!(
        "{:<12}{:>12}{:>22}{:>22}",
        "replicas", "percentage", "absolute reduction", "relative reduction"
    );
    for size in [3usize, 5, 7] {
        let s = numeric::sweep(size);
        for (label, side) in [
            (format!("{size} replicas"), s.wins),
            (String::new(), s.losses),
        ] {
            println!(
                "{label:<12}{:>11.1}%{:>20.1}ms{:>21.1}%",
                side.fraction * 100.0,
                side.absolute_ms,
                side.relative * 100.0,
            );
        }
    }
    println!("(paper: 3r: 0%/-9.9ms/-6.2%; 5r: 68.6%/31.9ms/15.2% and 31.4%/-30.6ms/-14.6%;");
    println!(" 7r: 85.7%/50.2ms/21.5% and 14.3%/-39.4ms/-16.9%)");
}

/// Figure 8: throughput for small (10 B), medium (100 B), and large
/// (1000 B) commands with five replicas on an emulated local cluster —
/// CPU cost model enabled, saturating closed-loop clients.
///
/// Shape notes (`tests/paper_claims.rs` asserts the latency shapes,
/// `tests/throughput.rs` these): the large-command ordering — the
/// multi-leader protocols beat the Paxos variants because the leader
/// copies every command's bytes N times — and Clock-RSM ≈ Mencius at all
/// sizes reproduce cleanly. The paper's small-command advantage of Paxos stems
/// from implementation-level batching asymmetries its own text
/// describes; a clean queueing model over the Table II message patterns
/// does not produce it (see `ablation_batching` for the sensitivity
/// study).
fn fig8() {
    let (clients, cpu) = (if quick() { 20 } else { 60 }, CpuModel::default());
    println!("\n=== Figure 8: throughput, five replicas, local cluster model ===");
    println!(
        "{:<16}{:>12}{:>12}{:>12}",
        "protocol", "10B", "100B", "1000B"
    );
    for choice in four_by_throughput() {
        print!("{:<16}", choice.name());
        for size in [10usize, 100, 1000] {
            let r = run_throughput(choice.clone(), size, clients, cpu, 7, BatchPolicy::DISABLED);
            print!("{:>10.1}k ", r.throughput_kops);
        }
        println!();
    }
    println!("(committed commands per second, thousands)");
}

/// Ablation: the CLOCKTIME broadcast interval Δ (Algorithm 2) under a
/// **light imbalanced** workload — the one case where the paper says the
/// extension matters. Expected: latency ≈ max(2·median, max + Δ), so
/// small Δ approaches the moderate-load latency and large Δ degrades
/// toward 2·max (the no-extension bound).
fn ablation_delta() {
    let (sites, matrix) = ec2::five_site_deployment();
    let at = index_of(&sites, Site::SG);
    let origin = ReplicaId::new(at as u16);
    println!("\n=== Ablation: CLOCKTIME interval Δ (light imbalanced load at SG) ===");
    println!(
        "analytic: latency = max(2*median, max + Δ) = max({:.1}, {:.1} + Δ) ms",
        2.0 * matrix.median_from(origin) as f64 / 1000.0,
        matrix.max_from(origin) as f64 / 1000.0
    );
    println!(
        "{:<12}{:>14}{:>14}{:>16}",
        "Δ (ms)", "avg (ms)", "p95 (ms)", "model (ms)"
    );
    for delta_ms in [1u64, 5, 10, 20, 50] {
        // Light load: one client, long think time, so PREPAREOK traffic
        // from previous commands cannot help the stable-order condition.
        let cfg = with_windows(ExperimentConfig::new(matrix.clone()))
            .active_sites(vec![at as u16])
            .clients_per_site(1)
            .think_max_us(400 * MILLIS);
        let choice = ProtocolChoice::clock_rsm_with(
            ClockRsmConfig::default().with_delta_us(Some(delta_ms * MILLIS)),
        );
        let mut r = checked(choice, &cfg);
        let s = &mut r.site_stats[at];
        println!(
            "{:<12}{:>14}{:>14}{:>16.1}",
            delta_ms,
            cell(s, |avg, _| format!("{avg:.1}")),
            cell(s, |_, p95| format!("{p95:.1}")),
            model::clock_rsm_imbalanced_light(&matrix, origin, delta_ms * MILLIS) as f64 / 1000.0,
        );
    }
}

/// Ablation: clock synchronization quality vs commit latency. The
/// paper's design rule is that skew affects only latency, never safety:
/// this sweep runs the balanced five-site workload with synchronization
/// bounds from perfect clocks to multi-second skew, asserting the
/// correctness checks at every point.
fn ablation_skew() {
    let (sites, matrix) = ec2::five_site_deployment();
    println!("\n=== Ablation: clock sync bound vs Clock-RSM latency (balanced) ===");
    print!("{:<14}", "bound");
    for s in &sites {
        print!("{:>10}", s.name());
    }
    println!("{:>10}", "safe?");
    for bound_us in [0u64, 1_000, 10_000, 50_000, 200_000, 1_000_000] {
        let cfg = with_windows(ExperimentConfig::new(matrix.clone()))
            .clock(ClockModel::ntp(bound_us))
            .clients_per_site(20);
        // Not `checked`: a failure must name the sweep point.
        let mut r = run_latency(ProtocolChoice::clock_rsm(), &cfg);
        assert!(
            r.checks.all_ok(),
            "safety violated at bound {bound_us}: {:?}",
            r.checks.violation
        );
        print!("{:<14}", format!("{} ms", bound_us / 1_000));
        for s in &mut r.site_stats {
            print!("{:>10}", cell(s, |avg, _| format!("{avg:.1}")));
        }
        println!("{:>10}", "yes");
    }
    println!("(average commit latency ms; linearizability checked at every bound)");
}

/// Ablation: per-message network jitter vs per-protocol latency on the
/// five-site balanced workload. Clock-RSM's stable-order condition waits
/// on the *slowest* link, so jitter should hurt it slightly more than
/// Paxos-bcast (which waits on medians) — the paper's "managed WAN"
/// remark (Section V-C).
fn ablation_jitter() {
    let (_, matrix) = ec2::five_site_deployment();
    println!("\n=== Ablation: network jitter vs average latency (balanced, 5 sites) ===");
    println!(
        "{:<12}{:>14}{:>14}{:>16}",
        "jitter (ms)", "Clock-RSM", "Paxos-bcast", "Mencius-bcast"
    );
    for jitter_ms in [0u64, 2, 5, 10, 20] {
        let cfg = with_windows(ExperimentConfig::new(matrix.clone()))
            .jitter_us(jitter_ms * 1_000)
            .clients_per_site(20);
        // The mean of the per-site means over the sites that recorded a
        // sample — the `cell` rule: an empty site is not a 0.0 ms one.
        let mean_over_sites = |choice| {
            let r = checked(choice, &cfg);
            let live = r.site_stats.iter().filter(|s| !s.is_empty());
            let (n, sum) = live.fold((0, 0.0), |(n, sum), s| (n + 1, sum + s.mean_ms()));
            if n == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", sum / n as f64)
            }
        };
        println!(
            "{:<12}{:>14}{:>14}{:>16}",
            jitter_ms,
            mean_over_sites(ProtocolChoice::clock_rsm()),
            mean_over_sites(ProtocolChoice::paxos_bcast(1)),
            mean_over_sites(ProtocolChoice::mencius()),
        );
    }
    println!("(average over all five sites, ms)");
}

/// Ablation: the CPU model's per-batch fixed cost vs throughput. The
/// paper attributes Paxos's small-command throughput win to the leader
/// "batching more commands when sending and receiving messages" — i.e. to
/// fixed per-batch costs being amortized better at the funnel. This sweep
/// varies the fixed cost from zero (pure per-message costs) upward and
/// reports the Paxos : Clock-RSM throughput ratio at 10 B commands.
fn ablation_batching() {
    let clients = if quick() { 15 } else { 40 };
    println!("\n=== Ablation: per-batch fixed CPU cost vs throughput (10B cmds) ===");
    println!(
        "{:<18}{:>14}{:>14}{:>14}{:>12}",
        "fixed cost (µs)", "Clock-RSM", "Paxos", "Paxos-bcast", "P/C ratio"
    );
    for fixed in [0u64, 10, 25, 50, 100] {
        let cpu = CpuModel {
            fixed_batch_us: fixed,
            per_msg_us: 2,
            per_kb_us: 9,
        };
        let t = |choice| {
            run_throughput(choice, 10, clients, cpu, 11, BatchPolicy::DISABLED).throughput_kops
        };
        let clock = t(ProtocolChoice::clock_rsm());
        let paxos = t(ProtocolChoice::paxos(0));
        let paxos_b = t(ProtocolChoice::paxos_bcast(0));
        println!(
            "{:<18}{:>13.1}k{:>13.1}k{:>13.1}k{:>12.2}",
            fixed,
            clock,
            paxos,
            paxos_b,
            paxos / clock.max(0.001),
        );
    }
    println!(
        "(kops/s; the ratio shows how batching-dominated cost structures favor the leader funnel)"
    );
}

/// Batch-size × command-size throughput sweep of the protocol-level
/// batching knob. Where `ablation_batching` varies the *CPU model's*
/// fixed per-batch cost (an environmental sensitivity study), this
/// varies the *protocol's* own cap: drivers coalesce queued client
/// requests into batches of up to `max_batch` commands, each replicated
/// with one `PREPAREBATCH`/`ACCEPT`/`PROPOSE` and one cumulative
/// acknowledgement. Expect small commands to gain the most (their
/// per-message fixed costs dominate) and kilobyte commands the least
/// (the byte funnel, not the message rate, is the bottleneck).
fn batch_sweep() {
    let (clients, cpu) = (if quick() { 20 } else { 60 }, CpuModel::default());
    let batches = [1usize, 2, 4, 8, 16, 32, 64];
    println!("\n=== Batch sweep: protocol-level batching vs throughput (kops/s) ===");
    for choice in four_by_throughput() {
        println!("\n--- {} ---", choice.name());
        print!("{:<12}", "cmd size");
        for b in batches {
            print!("{:>9}", format!("b={b}"));
        }
        println!("{:>10}", "64/1");
        for size in [10usize, 100, 1000] {
            print!("{:<12}", format!("{size}B"));
            let row = batches.map(|b| {
                run_throughput(choice.clone(), size, clients, cpu, 11, BatchPolicy::max(b))
                    .throughput_kops
            });
            for k in row {
                print!("{k:>8.1}k");
            }
            println!("{:>9.2}x", row[6] / row[0].max(0.001));
        }
    }
    println!(
        "\n(committed commands per second, thousands; rightmost column is the \
         batch-64 speedup over unbatched)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picked(line: &str) -> Option<Vec<&'static str>> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Some(select(&args)?.iter().map(|e| e.0).collect())
    }

    #[test]
    fn names_are_unique_and_all_is_the_fifteen_paper_entries_in_paper_order() {
        let mut names: Vec<_> = TABLE.iter().map(|e| e.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TABLE.len());
        assert!(!names.contains(&"all") && !names.contains(&"list"));
        let paper = "table2 table3 fig1 fig2 fig3 fig4 fig5 fig6 fig7 table4 fig8 \
                     ablation_delta ablation_skew ablation_jitter ablation_batching";
        assert_eq!(picked("all"), picked(paper));
        assert_eq!(picked("all").unwrap().len(), 15);
        // By name, anything in the table runs, in the order given.
        assert_eq!(picked("batch_sweep fig8").unwrap(), ["batch_sweep", "fig8"]);
    }

    #[test]
    fn unknown_or_missing_names_are_refused_and_the_usage_lists_every_name() {
        for bad in ["fig9", "fig1 repro_some", ""] {
            assert_eq!(picked(bad), None, "{bad:?} was accepted");
        }
        let usage = usage();
        assert!(TABLE.iter().all(|e| usage.contains(e.0)));
    }

    #[test]
    fn analytic_entries_run_to_completion() {
        for name in picked("table2 table3 fig7 table4").unwrap() {
            TABLE.iter().find(|e| e.0 == name).unwrap().1();
        }
    }

    #[test]
    fn an_empty_sample_set_prints_a_dash() {
        let mut s = LatencyStats::new();
        assert_eq!(cell(&mut s, |avg, _| format!("{avg:.1}")), "-");
        s.record(5_000);
        s.record(7_000);
        assert_eq!(cell(&mut s, |avg, _| format!("{avg:.1}")), "6.0");
        print_latency_table(
            "t",
            &[Site::CA, Site::VA],
            &mut [("x", vec![s.clone(), LatencyStats::new()])],
        );
        print_cdf_table("t", &mut [("x", s)], 5);
    }
}
