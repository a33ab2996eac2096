//! Root crate of the Clock-RSM reproduction workspace.
//!
//! This crate holds no library code of its own; it exists so the
//! workspace-level integration tests (`tests/`) and examples
//! (`examples/`) — which exercise the full stack across crates — have a
//! package to hang off. The real code lives in `crates/`:
//!
//! * `rsm-core` — vocabulary types, the sans-io [`Protocol`] contract,
//!   and what the protocols share: executor, sessions, reads, wire codec
//! * `clock-rsm`, `paxos`, `mencius` — the replication protocols
//! * `kvstore` — the replicated state machine
//! * `simnet` — the deterministic discrete-event simulator
//! * `rsm-runtime` — the threaded real-time driver, over `rsm-transport`
//!   (framed TCP/UDS links) when not in process
//! * `rsm-shard` — key-space partitioning and cross-shard snapshot cuts
//! * `rsm-obs` — metrics registry and per-command stage spans
//! * `harness`, `rsm-chaos` — simulated experiments with their checkers,
//!   and the fault-schedule search built on them
//! * `analysis`, `bench` — analytical latency model; the virtual-time
//!   paper-figure and perf-baseline binaries
//!
//! `benchmark/` is a package of its own (not a workspace member): the
//! wall-clock repo benchmark `BENCHMARK.json` declares. `README.md` has
//! the one-page tour and the commands.
//!
//! [`Protocol`]: https://docs.rs/rsm-core (crates/core/src/protocol.rs)
