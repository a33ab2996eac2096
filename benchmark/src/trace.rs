//! The traced run: stage medians from the program's spans joined with
//! the benchmark's own client spans, and the trace file.
//!
//! The cluster's trace epoch is the benchmark's `Instant`, so the
//! program's stage stamps and the client's call/return stamps share a
//! time base and can be subtracted.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::PathBuf;

use rsm_core::obs::TraceStage;
use rsm_obs::Span;

use crate::loadgen::ClientSpan;
use crate::phase::PhaseOutput;
use crate::stats::sorted_p50;

/// Spans written to the trace file; the rest are summarised only.
const MAX_FILE_SPANS: usize = 20_000;

/// Where run artefacts go: `out/` beside the benchmark's manifest,
/// inside the checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The per-stage medians, in milliseconds, over spans submitted inside
/// `window_us`.
pub fn stage_metrics(
    out: &mut PhaseOutput,
    spans: &[Span],
    client: &[ClientSpan],
    window_us: Range<u64>,
) {
    use TraceStage::{Committed, Proposed, Replicated, Replied, Stable, Submitted};
    let client: HashMap<u64, &ClientSpan> = client.iter().map(|c| (c.key, c)).collect();
    let spans: Vec<&Span> = spans
        .iter()
        .filter(|s| {
            s.stage(Submitted.index())
                .is_some_and(|t| window_us.contains(&t))
        })
        .collect();
    out.set("trace.spans", spans.len() as f64);
    let mut p50_ms = |name: &str, deltas: Vec<u64>| {
        if let Some((_, p50)) = sorted_p50(&deltas) {
            out.set(name, p50 as f64 / 1e3);
        }
    };
    for (name, from, to) in [
        ("stage.submit_to_propose_ms", Submitted, Proposed),
        ("stage.propose_to_replicate_ms", Proposed, Replicated),
        ("stage.propose_to_stable_ms", Proposed, Stable),
        ("stage.propose_to_commit_ms", Proposed, Committed),
        ("stage.commit_to_reply_ms", Committed, Replied),
    ] {
        let deltas = spans
            .iter()
            .filter_map(|s| s.delta(from.index(), to.index()))
            .collect();
        p50_ms(name, deltas);
    }
    // Inbox wait: the client's call to the node's drain of the command.
    let inbox = spans
        .iter()
        .filter_map(|s| {
            let call = client.get(&s.key)?.call_us;
            Some(s.stage(Submitted.index())?.saturating_sub(call))
        })
        .collect();
    p50_ms("client.call_to_submitted_ms", inbox);
    // Router and wake-up: the reply leaving the cluster to the
    // blocking call returning.
    let wake = spans
        .iter()
        .filter_map(|s| {
            let returned = client.get(&s.key)?.return_us?;
            Some(returned.saturating_sub(s.stage(Replied.index())?))
        })
        .collect();
    p50_ms("client.replied_to_return_ms", wake);
}

/// Writes `out/trace-<workload>.json`: the first [`MAX_FILE_SPANS`]
/// completed spans with their stage stamps and, where the benchmark
/// traced the call, the client's stamps. Microseconds since the epoch.
pub fn write_file(
    workload: &str,
    protocol: &str,
    spans: &[Span],
    client: &[ClientSpan],
) -> io::Result<()> {
    let client: HashMap<u64, &ClientSpan> = client.iter().map(|c| (c.key, c)).collect();
    fs::create_dir_all(out_dir())?;
    let mut f = BufWriter::new(fs::File::create(
        out_dir().join(format!("trace-{workload}.json")),
    )?);
    write!(
        f,
        "{{\"workload\":\"{workload}\",\"protocol\":\"{protocol}\",\"unit\":\"us\",\
         \"completed_spans\":{},\"spans\":[",
        spans.len()
    )?;
    for (i, s) in spans.iter().take(MAX_FILE_SPANS).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(f, "{sep}\n{{\"key\":{},\"origin\":{}", s.key, s.origin)?;
        for stage in TraceStage::ALL {
            if let Some(at) = s.stage(stage.index()) {
                write!(f, ",\"{}\":{at}", stage.name())?;
            }
        }
        if let Some(c) = client.get(&s.key) {
            write!(f, ",\"client_call\":{}", c.call_us)?;
            if let Some(r) = c.return_us {
                write!(f, ",\"client_return\":{r}")?;
            }
        }
        write!(f, "}}")?;
    }
    writeln!(f, "\n]}}")?;
    f.flush()
}
