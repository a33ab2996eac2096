//! # bench
//!
//! The **virtual-time** half of measurement: everything here runs the
//! protocols under the deterministic simulator, so every number is a
//! function of the seed and the cost model, not of the machine. Two
//! binaries:
//!
//! * `repro <name>… | all | list` — the paper's evaluation (Section VI)
//!   and the ablations, one table-driven binary.
//! * `perf_baseline [--check]` — the canonical perf matrix (3 protocols ×
//!   light/heavy × batch cap 1/64, the geo read mix with its span-derived
//!   latency breakdown, the shard sweep) → `BENCH_perf.json`.
//!
//! Wall-clock measurement of the threaded runtime is the repo benchmark
//! (`BENCHMARK.json`, `benchmark/`), not this crate.
//!
//! | `repro` name | Reproduces |
//! |--------------|-----------|
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
//! | `batch_sweep` | protocol-level batch size × command size throughput sweep (not in `all`) |
//!
//! Run with `cargo run -p bench --release --bin repro -- fig3 fig8`.
//! Set `BENCH_QUICK=1` to shrink measurement windows ~10x for smoke runs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use harness::ExperimentConfig;
use rsm_core::time::MILLIS;

/// Whether quick mode (`BENCH_QUICK` set and not `0`) is active.
pub fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Applies the measurement windows to an experiment configuration:
/// paper-grade (4 s warmup + 20 s), or ~10x smaller in quick mode.
pub fn with_windows(cfg: ExperimentConfig) -> ExperimentConfig {
    let (warmup_ms, duration_ms) = if quick() {
        (500, 2_000)
    } else {
        (4_000, 20_000)
    };
    cfg.warmup_us(warmup_ms * MILLIS)
        .duration_us(duration_ms * MILLIS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_core::LatencyMatrix;

    #[test]
    fn windows_shrink_in_quick_mode() {
        let cfg = with_windows(ExperimentConfig::new(LatencyMatrix::uniform(3, 250)));
        let (warmup_us, duration_us) = if quick() {
            (500_000, 2_000_000)
        } else {
            (4_000_000, 20_000_000)
        };
        assert_eq!(cfg.warmup_us, warmup_us);
        assert_eq!(cfg.duration_us, duration_us);
    }
}
