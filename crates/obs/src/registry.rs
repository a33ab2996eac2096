//! The metrics registry: counters, gauges, and deterministic snapshots.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta` (relaxed; allocation- and lock-free).
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins signed gauge. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value (relaxed; allocation- and lock-free).
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` (e.g. queue enter/leave).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
}

/// A shared registry of named metrics.
///
/// Registration (`counter`/`gauge`) takes the registry
/// mutex and allocates on first use of a name; the returned handles
/// record lock-free thereafter. Re-registering a name returns the SAME
/// underlying cell, so a replica that recovers keeps accumulating into
/// its existing counters. Cloning shares the registry.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Adopts an externally created gauge cell under `name`, so a value
    /// maintained elsewhere (e.g. a transport queue depth updated by its
    /// own threads) appears in snapshots without double bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn register_gauge(&self, name: &str, gauge: Gauge) {
        let mut metrics = self.metrics.lock().unwrap();
        let prev = metrics.insert(name.to_string(), Metric::Gauge(gauge));
        assert!(prev.is_none(), "metric {name:?} is already registered");
    }

    /// Captures every metric into a name-sorted, comparable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
            }
        }
        snap
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.metrics.lock().unwrap().len())
            .finish()
    }
}

/// The captured state of a [`Registry`]: name-sorted maps per metric
/// kind. Deterministic runs produce `==`-equal snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
}

impl MetricsSnapshot {
    /// The window between `earlier` and `self`: counters subtract
    /// (saturating), gauges keep their later value.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (name, v) in &mut out.counters {
            *v = v.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0));
        }
        out
    }

    /// Serializes to JSON with stable (name-sorted) key order.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\n    {}: {v}", json_str(name));
        }
        s.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, v) in &self.gauges {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\n    {}: {v}", json_str(name));
        }
        s.push_str("\n  }\n}");
        s
    }
}

/// Minimal JSON string escaping (metric names are ASCII identifiers,
/// but stay correct for anything).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A per-node view of a [`Registry`] that caches metric handles by
/// `&'static str` name (plus an optional small index, e.g. a peer
/// replica id), so the hot path resolves a metric with one `HashMap`
/// probe instead of a registry mutex acquisition.
///
/// Names are namespaced as `r<node>.<name>` (and `r<node>.<name>.<idx>`
/// for indexed metrics) so every replica's metrics stay distinguishable
/// in one registry. Drivers own one `NodeObs` per replica; it is not
/// `Sync` and wants `&mut` — exactly the shape of a node event loop.
#[derive(Debug)]
pub struct NodeObs {
    registry: Registry,
    prefix: String,
    counters: HashMap<(&'static str, u32), Counter>,
    gauges: HashMap<(&'static str, u32), Gauge>,
}

/// Cache key for the un-indexed variant of a metric name.
const NO_IDX: u32 = u32::MAX;

impl NodeObs {
    /// A view for node `node` over `registry`.
    pub fn new(registry: Registry, node: u16) -> Self {
        NodeObs {
            registry,
            prefix: format!("r{node}"),
            counters: HashMap::new(),
            gauges: HashMap::new(),
        }
    }

    fn full_name(prefix: &str, name: &str, idx: u32) -> String {
        if idx == NO_IDX {
            format!("{prefix}.{name}")
        } else {
            format!("{prefix}.{name}.{idx}")
        }
    }

    /// Adds `delta` to the node's counter `name`.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        let (registry, prefix) = (&self.registry, &self.prefix);
        self.counters
            .entry((name, NO_IDX))
            .or_insert_with(|| registry.counter(&Self::full_name(prefix, name, NO_IDX)))
            .add(delta);
    }

    /// Sets the node's gauge `name`.
    pub fn gauge(&mut self, name: &'static str, value: i64) {
        let (registry, prefix) = (&self.registry, &self.prefix);
        self.gauges
            .entry((name, NO_IDX))
            .or_insert_with(|| registry.gauge(&Self::full_name(prefix, name, NO_IDX)))
            .set(value);
    }

    /// Sets the node's indexed gauge `name.idx` (e.g. a per-peer depth).
    pub fn gauge_idx(&mut self, name: &'static str, idx: u16, value: i64) {
        let (registry, prefix) = (&self.registry, &self.prefix);
        self.gauges
            .entry((name, u32::from(idx)))
            .or_insert_with(|| registry.gauge(&Self::full_name(prefix, name, u32::from(idx))))
            .set(value);
    }

    /// The registry this view writes into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("a.writes");
        c.add(3);
        reg.counter("a.writes").inc(); // same cell
        let g = reg.gauge("a.depth");
        g.set(7);
        g.add(-2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a.writes"], 4);
        assert_eq!(snap.gauges["a.depth"], 5);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_keeps_gauges() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        c.add(5);
        g.set(1);
        let early = reg.snapshot();
        c.add(2);
        g.set(9);
        let late = reg.snapshot();
        let d = late.delta(&early);
        assert_eq!(d.counters["c"], 2);
        assert_eq!(d.gauges["g"], 9);
    }

    #[test]
    fn snapshots_compare_and_export_deterministically() {
        let build = || {
            let reg = Registry::new();
            reg.counter("z.last").add(1);
            reg.counter("a.first").add(2);
            reg.gauge("m.depth").set(-3);
            reg.snapshot()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let json = a.to_json();
        // Name-sorted order and both sections present.
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"m.depth\": -3"));
    }

    #[test]
    fn node_obs_prefixes_and_caches() {
        let reg = Registry::new();
        let mut n0 = NodeObs::new(reg.clone(), 0);
        let mut n1 = NodeObs::new(reg.clone(), 1);
        n0.count("commits", 2);
        n0.count("commits", 1);
        n1.count("commits", 5);
        n0.gauge_idx("outq", 2, 11);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["r0.commits"], 3);
        assert_eq!(snap.counters["r1.commits"], 5);
        assert_eq!(snap.gauges["r0.outq.2"], 11);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.gauge("x");
        reg.counter("x");
    }
}
