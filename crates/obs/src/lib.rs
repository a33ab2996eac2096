//! # rsm-obs
//!
//! The observability layer of the Clock-RSM reproduction: a lock-light
//! metrics [`Registry`] plus per-command [trace spans](Tracer) that
//! decompose a command's latency into the paper's terms (prepare
//! replication, stable-timestamp wait, commit, execution, reply).
//!
//! The crate is a dependency-free leaf: protocols never see it (they
//! talk to the driver through `rsm_core`'s `Context` observability
//! hooks), while the drivers (`simnet`, `rsm-runtime`), the transport,
//! and the benches record into it directly.
//!
//! ## Hot-path cost contract
//!
//! * [`Counter::add`] and [`Gauge::set`] are a single relaxed atomic
//!   RMW on a pre-resolved handle — no locks, no allocation, no
//!   branches. Handles are
//!   resolved once (one registry mutex acquisition per *name*, cached
//!   by [`NodeObs`]) and cloned freely.
//! * [`Tracer::sampled`] is a pure hash of the span key; an unsampled
//!   command costs exactly that and nothing else. Sampled stamps take
//!   the tracer mutex, so sampling is the knob that bounds tracing cost
//!   on saturated runs ([`ObsConfig::sample_shift`]).
//! * Nothing in this crate reads wall-clock time. Every stamp carries a
//!   caller-provided timestamp — virtual time under `simnet`, monotonic
//!   micros since the cluster epoch under the threaded runtime — so
//!   instrumented simulator runs stay byte-for-byte deterministic.
//!
//! ## Snapshot semantics
//!
//! [`Registry::snapshot`] captures every metric into a
//! [`MetricsSnapshot`] with `BTreeMap` (name-sorted) ordering:
//! snapshots of deterministic runs compare equal with `==`, export to
//! stable JSON ([`MetricsSnapshot::to_json`]), and subtract
//! ([`MetricsSnapshot::delta`]) to scope counters to a window. A
//! snapshot is *not* an atomic cut across metrics — each metric is read
//! individually — which is fine for the monotone counters and
//! single-writer gauges recorded here.
//!
//! ## Sampling
//!
//! The tracer samples 1-in-2^[`sample_shift`](ObsConfig::sample_shift)
//! span keys (0 = every command) with a deterministic key hash, so the
//! same commands are sampled on every replay.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod registry;
mod trace;

pub use registry::{Counter, Gauge, MetricsSnapshot, NodeObs, Registry};
pub use trace::{ObsConfig, Span, Tracer, MAX_STAGES};

/// Largest value over a set of gauges (e.g. the deepest per-peer
/// outbound queue), `0` when empty or all-negative-free.
pub fn gauge_max(gauges: &[Gauge]) -> i64 {
    gauges.iter().map(Gauge::get).max().unwrap_or(0)
}
