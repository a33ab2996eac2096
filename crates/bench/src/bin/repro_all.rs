//! One-shot reproduction: runs every table and figure of the paper in
//! sequence, printing each in paper order. Equivalent to running the
//! individual `table*`/`fig*` binaries; honors `BENCH_QUICK=1`.
//!
//! Run with: `cargo run -p bench --release --bin repro_all`

use std::process::Command;

fn main() {
    let targets = [
        "table2",
        "table3",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "table4",
        "fig8",
        "ablation_delta",
        "ablation_skew",
        "ablation_jitter",
        "ablation_batching",
    ];
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("bin directory");
    for t in targets {
        println!("\n########## {t} ##########");
        let status = Command::new(dir.join(t))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {t}: {e}"));
        assert!(status.success(), "{t} failed with {status}");
    }
    println!(
        "\nAll tables and figures reproduced. tests/paper_claims.rs asserts the paper's shapes."
    );
}
