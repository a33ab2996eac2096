//! # bench
//!
//! The benchmark harness of the Clock-RSM reproduction: **one binary per
//! table and figure** of the paper's evaluation (Section VI), plus
//! ablation studies and Criterion micro/macro benchmarks.
//!
//! | Binary | Reproduces |
//! |--------|-----------|
//! | `table2` | Table II — latency formulas, steps, complexity |
//! | `table3` | Table III — the EC2 RTT matrix driving the simulator |
//! | `fig1` | Figure 1 — 5 sites, balanced, avg + p95 per replica |
//! | `fig2` | Figure 2 — 3 sites, balanced |
//! | `fig3` | Figure 3 — latency CDF at JP (5 sites, leader CA) |
//! | `fig4` | Figure 4 — latency CDF at CA (3 sites, leader VA) |
//! | `fig5` | Figure 5 — 5 sites, imbalanced |
//! | `fig6` | Figure 6 — latency CDF at SG (imbalanced) |
//! | `fig7` | Figure 7 — numerical sweep over all DC combinations |
//! | `table4` | Table IV — latency reduction of Clock-RSM vs Paxos-bcast |
//! | `fig8` | Figure 8 — throughput on an emulated local cluster |
//! | `ablation_delta` | Δ (CLOCKTIME interval) sweep, light imbalanced load |
//! | `ablation_skew` | clock synchronization bound sweep |
//! | `ablation_jitter` | network jitter sensitivity |
//! | `ablation_batching` | CPU fixed-cost (batching benefit) sweep |
//! | `batch_sweep` | protocol-level batch size × command size throughput sweep |
//! | `perf_baseline` | canonical perf matrix (3 protocols × light/heavy × static batch caps, shard sweep, wall-clock runtime rows) → `BENCH_perf.json` |
//! | `obs_report` | per-protocol latency breakdown from trace spans → `BENCH_perf.json` (run after `perf_baseline`) |
//!
//! Run any of them with `cargo run -p bench --release --bin figN`.
//! Set `BENCH_QUICK=1` to shrink measurement windows ~10x for smoke runs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use harness::{ExperimentConfig, LatencyStats};
use rsm_core::time::{Micros, MILLIS};

/// Measurement window parameters, honoring `BENCH_QUICK`.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    /// Warmup before samples count.
    pub warmup_us: Micros,
    /// Measurement window length.
    pub duration_us: Micros,
}

/// Returns paper-grade windows (4 s + 20 s), or ~10x smaller when the
/// `BENCH_QUICK` environment variable is set.
pub fn windows() -> Windows {
    if quick() {
        Windows {
            warmup_us: 500 * MILLIS,
            duration_us: 2_000 * MILLIS,
        }
    } else {
        Windows {
            warmup_us: 4_000 * MILLIS,
            duration_us: 20_000 * MILLIS,
        }
    }
}

/// Whether quick mode is active.
pub fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Applies the window parameters to an experiment configuration.
pub fn with_windows(cfg: ExperimentConfig) -> ExperimentConfig {
    let w = windows();
    cfg.warmup_us(w.warmup_us).duration_us(w.duration_us)
}

/// Prints a per-site `avg (p95)` table, one row per protocol — the shape
/// of Figures 1, 2, and 5.
pub fn print_latency_table(
    title: &str,
    site_names: &[&str],
    rows: &mut [(String, Vec<LatencyStats>)],
) {
    println!("\n=== {title} ===");
    print!("{:<16}", "protocol");
    for s in site_names {
        print!("{s:>16}");
    }
    println!();
    for (name, stats) in rows.iter_mut() {
        print!("{name:<16}");
        for s in stats.iter_mut() {
            if s.is_empty() {
                print!("{:>16}", "-");
            } else {
                print!(
                    "{:>16}",
                    format!("{:.1} ({:.1})", s.mean_ms(), s.percentile_ms(95.0))
                );
            }
        }
        println!();
    }
    println!("(per-site commit latency ms: average (95th percentile))");
}

/// Prints CDF series side by side — the shape of Figures 3, 4, and 6.
pub fn print_cdf_table(title: &str, series: &mut [(String, LatencyStats)], points: usize) {
    println!("\n=== {title} ===");
    let cdfs: Vec<(String, Vec<(f64, f64)>)> = series
        .iter_mut()
        .map(|(name, s)| (name.clone(), s.cdf(points)))
        .collect();
    print!("{:<10}", "CDF%");
    for (name, _) in &cdfs {
        print!("{name:>16}");
    }
    println!();
    for i in 0..points {
        let frac = i as f64 / (points - 1) as f64;
        print!("{:<10.0}", frac * 100.0);
        for (_, cdf) in &cdfs {
            match cdf.get(i) {
                Some((ms, _)) => print!("{ms:>16.1}"),
                None => print!("{:>16}", "-"),
            }
        }
        println!();
    }
    println!("(latency ms at each percentile)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_shrink_in_quick_mode() {
        if !quick() {
            let w = windows();
            assert_eq!(w.warmup_us, 4_000_000);
            assert_eq!(w.duration_us, 20_000_000);
        }
    }

    #[test]
    fn print_helpers_do_not_panic() {
        let mut stats = LatencyStats::new();
        stats.record(5_000);
        stats.record(7_000);
        print_latency_table("t", &["A"], &mut [("x".into(), vec![stats.clone()])]);
        print_cdf_table("t", &mut [("x".into(), stats)], 5);
    }
}
