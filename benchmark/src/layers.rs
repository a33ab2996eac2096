//! The per-layer ledger: micro-drivers that time each layer's public
//! functions from outside, one layer at a time.
//!
//! Every driver calls only `pub` items of the crate it measures and
//! reports under that crate's (or module's) name. The README states
//! which end-to-end metric each number should move, on which workload.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use clock_rsm::{ClockRsm, ClockRsmConfig, RsmMsg};
use harness::{run_latency, ExperimentConfig, LatencyStats, ProtocolChoice};
use kvstore::KvStore;
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use rsm_core::batch::{Batch, BatchPolicy};
use rsm_core::command::{Command, CommandId, Committed};
use rsm_core::config::{Epoch, Membership};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::matrix::LatencyMatrix;
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::session::{SessionTable, DEFAULT_SESSION_WINDOW};
use rsm_core::sm::StateMachine;
use rsm_core::time::{Micros, Timestamp};
use rsm_core::wire::{
    checksum, decode_payload, encode_payload, FrameHeader, WireDecode, WireEncode, WireError,
    WireMsg, WireReader, WireSize,
};
use rsm_runtime::{Cluster, ClusterConfig, ClusterTransport};
use rsm_transport::{Endpoint, Hub, Listener, MsgSink};
use simnet::{ClockModel, CpuModel};

use crate::loadgen::{drive, generator_threads, Run, Sample};
use crate::null::NullProtocol;
use crate::ops::{Op, OpStream};
use crate::stats::sorted_p50;
use crate::workload::{checkpoint_policy, Load, Proto, Workload};

pub type Metrics = BTreeMap<String, f64>;

/// How long each driver measures. A full run spends ~0.2 s on each of
/// some forty timings; `--quick` a tenth of that.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub each: Duration,
    /// Whether Unix sockets can be bound under the checkout (the path
    /// fits `sun_path`); the UDS drivers report 0 otherwise.
    pub uds: bool,
}

/// Runs every micro-driver.
pub fn run_all(seed: u64, budget: Budget) -> Metrics {
    let mut m = Metrics::new();
    wire(&mut m, seed, budget);
    for proto in Proto::ALL {
        step(&mut m, proto, seed, budget);
    }
    kvstore_and_session(&mut m, seed, budget);
    node_and_net(&mut m, seed, budget);
    transport(&mut m, budget);
    m
}

/// Nanoseconds per call of `f`, over at least `budget` of calls.
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    // Warm caches and the allocator; also sizes the batches so the
    // clock is read once per ~50 µs of work, not once per call.
    let t0 = Instant::now();
    let mut warm = 0u64;
    while t0.elapsed() < budget / 10 || warm < 3 {
        f();
        warm += 1;
    }
    let batch = (warm / 20).max(1);
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..batch {
            f();
        }
        calls += batch;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

fn put_cmd(stream: &mut OpStream, client: u32, seq: u64) -> Command {
    let op = loop {
        if let op @ Op::Put { .. } = stream.next_op() {
            break op;
        }
    };
    let id = CommandId::new(ClientId::new(ReplicaId::new(0), client), seq);
    Command::new(id, stream.payload(op))
}

// ---------------------------------------------------------------- wire

fn wire(m: &mut Metrics, seed: u64, budget: Budget) {
    let mut stream = OpStream::new(seed, 0, 2048, 0, 1024);
    let r0 = ReplicaId::new(0);
    let big = RsmMsg::PrepareBatch {
        epoch: Epoch::ZERO,
        ts: Timestamp::new(1_000_000, r0),
        origin: r0,
        cmds: Batch::new((1..=64).map(|seq| put_cmd(&mut stream, 1, seq)).collect()),
    };
    let small = RsmMsg::PrepareOk {
        epoch: Epoch::ZERO,
        up_to: Timestamp::new(1_000_000, r0),
        clock_ts: Timestamp::new(1_000_005, ReplicaId::new(1)),
    };
    for (name, msg) in [("prepare_batch64_1k", &big), ("prepare_ok", &small)] {
        let payload = encode_payload(msg);
        let enc = ns_per_call(budget.each, || {
            black_box(encode_payload(black_box(msg)));
        });
        let dec = ns_per_call(budget.each, || {
            let back: RsmMsg = decode_payload(black_box(payload.clone())).expect("round trip");
            black_box(back);
        });
        m.insert(format!("wire.encode_ns.{name}"), enc);
        m.insert(format!("wire.decode_ns.{name}"), dec);
        if name == "prepare_batch64_1k" {
            // bytes per ns × 1e3 = MB/s
            m.insert("wire.encode_mb_s".into(), payload.len() as f64 / enc * 1e3);
            m.insert("wire.decode_mb_s".into(), payload.len() as f64 / dec * 1e3);
            let sum = ns_per_call(budget.each, || {
                black_box(checksum(black_box(&payload)));
            });
            m.insert(
                "wire.checksum_mb_s".into(),
                payload.len() as f64 / sum * 1e3,
            );
        }
    }
    let header = FrameHeader {
        from: r0,
        to: ReplicaId::new(1),
        len: 4096,
        seq: 7,
        checksum: 0xdead_beef,
    };
    let ns = ns_per_call(budget.each, || {
        let bytes = black_box(&header).encode();
        black_box(FrameHeader::decode(black_box(&bytes)).expect("valid header"));
    });
    m.insert("wire.frame_header_ns".into(), ns);
}

// ---------------------------------------------------------------- step

/// A three-replica cluster of bare protocol cores on a synchronous
/// in-memory network: sends queue up and are delivered FIFO, one
/// callback at a time, each timed against the replica it runs on.
struct StepNet<P: Protocol> {
    me: ReplicaId,
    clock: Micros,
    queue: VecDeque<(ReplicaId, ReplicaId, P::Msg)>,
    commits: Vec<u64>,
    /// Messages and `WireSize` bytes sent to *other* replicas.
    msgs: u64,
    bytes: u64,
}

impl<P: Protocol> Context<P> for StepNet<P> {
    fn clock(&mut self) -> Micros {
        // A batch of k commands takes k consecutive microsecond
        // timestamps, and Clock-RSM acknowledges it only once the local
        // clock has passed the last; step well past any batch, as a
        // message hop would.
        self.clock += 100;
        self.clock
    }
    fn send(&mut self, to: ReplicaId, msg: P::Msg) {
        if to != self.me {
            self.msgs += 1;
            self.bytes += msg.wire_size() as u64;
        }
        self.queue.push_back((self.me, to, msg));
    }
    fn log_append(&mut self, _rec: P::LogRec) {}
    fn log_rewrite(&mut self, _recs: Vec<P::LogRec>) {}
    fn commit(&mut self, _c: Committed) -> Bytes {
        self.commits[self.me.index()] += 1;
        Bytes::new()
    }
    fn set_timer(&mut self, _after: Micros, _token: TimerToken) {}
}

#[derive(Debug, Clone, Copy)]
struct StepCosts {
    origin_ns_per_cmd: f64,
    remote_ns_per_cmd: f64,
    msgs_per_cmd: f64,
    bytes_per_cmd: f64,
}

/// Three bare replicas and the network between them.
struct StepCluster<P: Protocol> {
    replicas: Vec<P>,
    net: StepNet<P>,
    stream: OpStream,
    cmds: u64,
}

impl<P: Protocol> StepCluster<P> {
    const REPLICAS: u16 = 3;

    fn new(factory: impl Fn(ReplicaId) -> P, seed: u64) -> Self {
        let mut c = StepCluster {
            replicas: (0..Self::REPLICAS)
                .map(|i| factory(ReplicaId::new(i)))
                .collect(),
            net: StepNet {
                me: ReplicaId::new(0),
                clock: 1_000_000,
                queue: VecDeque::new(),
                commits: vec![0; Self::REPLICAS as usize],
                msgs: 0,
                bytes: 0,
            },
            stream: OpStream::new(seed, 0, 2048, 0, 16),
            cmds: 0,
        };
        for r in &mut c.replicas {
            c.net.me = r.id();
            r.on_start(&mut c.net);
        }
        c
    }

    /// Replica 0 originates batches of `batch` commands for `span`,
    /// each run to quiescence before the next. Returns the time spent
    /// inside each replica's callbacks.
    fn run(&mut self, batch: usize, span: Duration) -> Vec<Duration> {
        let mut busy = vec![Duration::ZERO; self.replicas.len()];
        let t0 = Instant::now();
        while t0.elapsed() < span {
            let cmds: Vec<Command> = (0..batch)
                .map(|_| {
                    self.cmds += 1;
                    put_cmd(&mut self.stream, 1, self.cmds)
                })
                .collect();
            self.net.me = ReplicaId::new(0);
            let t = Instant::now();
            self.replicas[0].on_client_batch(Batch::new(cmds), &mut self.net);
            busy[0] += t.elapsed();
            while let Some((from, to, msg)) = self.net.queue.pop_front() {
                self.net.me = to;
                let t = Instant::now();
                self.replicas[to.index()].on_message(from, msg, &mut self.net);
                busy[to.index()] += t.elapsed();
            }
        }
        busy
    }
}

fn step_costs<P: Protocol>(
    factory: impl Fn(ReplicaId) -> P,
    batch: usize,
    seed: u64,
    budget: Duration,
) -> StepCosts {
    let mut c = StepCluster::new(factory, seed);
    c.run(batch, budget / 10); // warm-up
    let (cmds, msgs, bytes) = (c.cmds, c.net.msgs, c.net.bytes);
    let busy = c.run(batch, budget);
    assert!(
        c.net.commits.iter().all(|&n| n == c.cmds),
        "step driver: replicas committed {:?} of {} commands",
        c.net.commits,
        c.cmds
    );
    let n = (c.cmds - cmds) as f64;
    StepCosts {
        origin_ns_per_cmd: busy[0].as_nanos() as f64 / n,
        remote_ns_per_cmd: busy[1].as_nanos() as f64 / n,
        msgs_per_cmd: (c.net.msgs - msgs) as f64 / n,
        bytes_per_cmd: (c.net.bytes - bytes) as f64 / n,
    }
}

fn step(m: &mut Metrics, proto: Proto, seed: u64, budget: Budget) {
    let members = || Membership::uniform(3);
    let costs = |batch: usize| match proto {
        Proto::ClockRsm => step_costs(
            |id| ClockRsm::new(id, members(), ClockRsmConfig::default()),
            batch,
            seed,
            budget.each,
        ),
        Proto::Paxos => step_costs(
            |id| MultiPaxos::new(id, members(), ReplicaId::new(0), PaxosVariant::Bcast),
            batch,
            seed,
            budget.each,
        ),
        Proto::Mencius => step_costs(
            |id| MenciusBcast::new(id, members()),
            batch,
            seed,
            budget.each,
        ),
    };
    let p = proto.name();
    let b64 = costs(64);
    m.insert(
        format!("step.{p}.origin_ns_per_cmd.b64"),
        b64.origin_ns_per_cmd,
    );
    m.insert(
        format!("step.{p}.remote_ns_per_cmd.b64"),
        b64.remote_ns_per_cmd,
    );
    m.insert(format!("step.{p}.msgs_per_cmd.b64"), b64.msgs_per_cmd);
    m.insert(format!("step.{p}.bytes_per_cmd.b64"), b64.bytes_per_cmd);
    m.insert(
        format!("step.{p}.remote_ns_per_cmd.b1"),
        costs(1).remote_ns_per_cmd,
    );
}

// ------------------------------------------------- kvstore and session

fn kvstore_and_session(m: &mut Metrics, seed: u64, budget: Budget) {
    const KEYS: u64 = 2048;
    let mut next = 0usize;
    let mut cycle = move |len: usize| {
        next = (next + 1) % len;
        next
    };
    for (name, value_bytes) in [("16b", 16), ("1k", 1024)] {
        let mut stream = OpStream::new(seed, 0, KEYS, 0, value_bytes);
        let puts: Vec<Command> = (1..=4096).map(|seq| put_cmd(&mut stream, 1, seq)).collect();
        let mut store = KvStore::new();
        let ns = ns_per_call(budget.each, || {
            black_box(store.apply(&puts[cycle(puts.len())]));
        });
        m.insert(format!("kvstore.put_ns.{name}"), ns);
        if name == "1k" {
            // `store` now holds (nearly) all 2048 keys at 1 KiB each.
            let gets: Vec<Command> = (0..KEYS)
                .map(|key| {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 2), key + 1);
                    Command::read(id, stream.payload(Op::Get { key }))
                })
                .collect();
            let ns = ns_per_call(budget.each, || {
                black_box(store.query(&gets[cycle(gets.len())]));
            });
            m.insert("kvstore.get_ns".into(), ns);
            let snap = store.snapshot();
            let ns = ns_per_call(budget.each, || {
                black_box(store.snapshot());
            });
            m.insert("kvstore.snapshot_ms.2048x1k".into(), ns / 1e6);
            let mut target = KvStore::new();
            let ns = ns_per_call(budget.each, || {
                assert!(target.restore(black_box(&snap)));
            });
            m.insert("kvstore.restore_ms.2048x1k".into(), ns / 1e6);
        }
    }

    // Fresh ids through the dedup window, 64 clients taking turns; the
    // commit itself is a sink, so this is the table's cost alone.
    let mut table = SessionTable::new(DEFAULT_SESSION_WINDOW);
    let mut sink = StepNet::<NullProtocol> {
        me: ReplicaId::new(0),
        clock: 0,
        queue: VecDeque::new(),
        commits: vec![0],
        msgs: 0,
        bytes: 0,
    };
    let payload = Bytes::from_static(&[0u8; 16]);
    let mut seq = 0u64;
    let ns = ns_per_call(budget.each, || {
        seq += 1;
        let client = ClientId::new(ReplicaId::new(0), (seq % 64) as u32);
        let committed = Committed {
            cmd: Command::new(CommandId::new(client, seq), payload.clone()),
            origin: ReplicaId::new(1),
            order_hint: seq,
        };
        black_box(table.commit_dedup(ReplicaId::new(0), committed, &mut sink));
    });
    assert_eq!(sink.commits[0], seq, "fresh ids must all apply");
    m.insert("session.dedup_ns".into(), ns);
}

// -------------------------------------------------------- node and net

/// The generator against a cluster of [`NullProtocol`] replicas:
/// the measured window's successful samples.
fn null_run(
    replicas: u16,
    bounce: bool,
    transport: ClusterTransport,
    window: usize,
    seed: u64,
    budget: Duration,
) -> (Vec<Sample>, f64) {
    let load = Load {
        value_bytes: 16,
        keys: 2048,
        window,
        read_permille: 0,
        warmup_s: 1.0,
    };
    let cfg = ClusterConfig::new(LatencyMatrix::uniform(replicas as usize, 0))
        .batch_policy(BatchPolicy::max(64))
        .transport(transport);
    let cluster = Cluster::spawn(
        cfg,
        |id| match bounce {
            true => NullProtocol::bounce(id, replicas),
            false => NullProtocol::commit_at_origin(id),
        },
        || Box::new(KvStore::new()),
    );
    let run = Run {
        sites: replicas as usize,
        load: &load,
        seed,
        first_client: 1,
        epoch: Instant::now(),
    };
    let (logs, window_us) = drive(&cluster, run, budget.as_secs_f64(), |_| {});
    cluster.shutdown();
    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .filter(|s| s.ok && window_us.contains(&s.done_us))
        .collect();
    let secs = (window_us.end - window_us.start) as f64 / 1e6;
    (samples, secs)
}

fn p50_us(samples: &[Sample]) -> f64 {
    let lat: Vec<u64> = samples.iter().map(|s| s.latency_us).collect();
    sorted_p50(&lat).map_or(0.0, |(_, p50)| p50 as f64)
}

fn node_and_net(m: &mut Metrics, seed: u64, budget: Budget) {
    // Each of these spawns a cluster and runs real threads, so they
    // get a longer window than the pure-CPU drivers.
    let each = budget.each * 3;
    let inproc = ClusterTransport::InProcess;
    let (samples, secs) = null_run(1, false, inproc, 1024, seed, each);
    let ops: u64 = samples.iter().map(|s| s.ops).sum();
    m.insert("node.null_kops".into(), ops as f64 / secs / 1e3);
    let (samples, _) = null_run(1, false, inproc, 1, seed, each);
    let rtt = p50_us(&samples);
    m.insert("node.null_rtt_us".into(), rtt);
    for (name, transport, possible) in [
        ("inproc", inproc, true),
        ("tcp", ClusterTransport::Tcp, true),
        ("uds", ClusterTransport::Uds, budget.uds),
    ] {
        // A bounced command pays the null round trip plus two hops.
        let hop = match possible {
            true => (p50_us(&null_run(2, true, transport, 1, seed, each).0) - rtt) / 2.0,
            false => 0.0,
        };
        m.insert(format!("net.{name}_hop_us"), hop);
    }
}

// ----------------------------------------------------------- transport

/// An opaque frame body.
#[derive(Debug, Clone)]
struct Blob(Bytes);

impl WireEncode for Blob {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.0);
    }
}

impl WireDecode for Blob {
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Blob(r.take_bytes(r.remaining())?))
    }
}

impl WireMsg for Blob {}

/// Frames per second from a `Hub` to a `Listener` over `endpoint`,
/// nothing attached to either end.
fn transport_frames_per_s(endpoint: Endpoint, body_bytes: usize, budget: Duration) -> f64 {
    const ROUND: u64 = 512;
    let received = Arc::new(AtomicU64::new(0));
    let (done_tx, done_rx) = mpsc::channel();
    let listener = {
        let received = Arc::clone(&received);
        let done_tx = std::sync::Mutex::new(done_tx);
        Listener::bind(&endpoint, move |_from, blob: Blob| {
            black_box(blob);
            let n = received.fetch_add(1, Ordering::SeqCst) + 1;
            // Tell the sender each time the count reaches a round
            // number it may be waiting for.
            if n.is_multiple_of(ROUND) {
                let _ = done_tx.lock().expect("sender never panics").send(n);
            }
        })
        .expect("bind transport listener")
    };
    let r0 = ReplicaId::new(0);
    let mut hub: Hub<Blob> = Hub::new(r0, Box::new(|_| {}));
    hub.add_peer(
        ReplicaId::new(1),
        listener.endpoint().clone(),
        Duration::ZERO,
    );
    let body = Blob(Bytes::from(vec![0xa5u8; body_bytes]));
    let mut sent = 0u64;
    let mut start = None;
    let t0 = Instant::now();
    // Rounds of 512 frames, each awaited, so that what is timed was
    // delivered; the first rounds (the dial, cold buffers) are warm-up.
    loop {
        if start.is_none() && t0.elapsed() >= budget / 10 {
            start = Some((Instant::now(), sent));
        }
        if let Some((t, _)) = start {
            if t.elapsed() >= budget {
                break;
            }
        }
        for _ in 0..ROUND {
            hub.send_msg(ReplicaId::new(1), body.clone());
        }
        sent += ROUND;
        while done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("transport delivers every frame")
            < sent
        {}
    }
    let (t, at) = start.expect("loop ran past warm-up");
    let rate = (sent - at) as f64 / t.elapsed().as_secs_f64();
    drop(hub);
    drop(listener);
    rate
}

fn transport(m: &mut Metrics, budget: Budget) {
    for (name, possible) in [("tcp", true), ("uds", budget.uds)] {
        let endpoint = || match name {
            "tcp" => Endpoint::tcp_loopback(),
            _ => Endpoint::uds_temp("bench", 0),
        };
        let (small, large) = match possible {
            true => (
                transport_frames_per_s(endpoint(), 64, budget.each),
                transport_frames_per_s(endpoint(), 64 << 10, budget.each),
            ),
            false => (0.0, 0.0),
        };
        m.insert(format!("transport.{name}.frames_per_s.64b"), small);
        m.insert(
            format!("transport.{name}.mb_s.64k"),
            large * (64 << 10) as f64 / 1e6,
        );
    }
}

// -------------------------------------------------------------- simnet

/// What the runtime measured for Clock-RSM on the workload the
/// simulator is asked to predict.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeFigures {
    /// Time to turn one client window around (`window_turn_ms`).
    pub commit_ms: f64,
    pub kops: f64,
}

/// Runs Clock-RSM on `workload` under the deterministic simulator with
/// its default `CpuModel` for `virtual_s` of virtual time, and reports
/// what it predicts next to what the runtime measured, plus how fast
/// the simulator itself runs. Returns the relative gap of the
/// predicted commit latency.
pub fn simnet(
    m: &mut Metrics,
    workload: &Workload,
    seed: u64,
    virtual_s: f64,
    runtime: RuntimeFigures,
) -> f64 {
    let load = &workload.load;
    let matrix = workload.topology.matrix();
    let sites = matrix.len();
    // One closed-loop simulated client per command the generator keeps
    // outstanding, spread over the sites as its turns are.
    let outstanding = generator_threads() * load.window;
    let clients_per_site = outstanding.div_ceil(sites);
    let warmup_us = (virtual_s * 0.25e6) as Micros;
    let duration_us = (virtual_s * 0.75e6) as Micros;
    let mut cfg = ExperimentConfig::new(matrix.clone())
        .seed(seed)
        .clock(ClockModel::perfect())
        .clients_per_site(clients_per_site)
        .think_max_us(0)
        .value_bytes(load.value_bytes)
        .read_fraction(load.read_permille as f64 / 1e3)
        .warmup_us(warmup_us)
        .duration_us(duration_us)
        .cpu(CpuModel::default())
        .batch(BatchPolicy::max(64))
        .checkpoint(checkpoint_policy())
        .record_ops(false);
    cfg.key_space = load.keys;
    let t0 = Instant::now();
    let mut result = run_latency(ProtocolChoice::clock_rsm(), &cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    // `run_latency` simulates two more seconds after the window closes.
    let simulated_s = (warmup_us + duration_us) as f64 / 1e6 + 2.0;
    m.insert("simnet.virt_s_per_wall_s".into(), simulated_s / wall_s);
    let commits = result.commit_counts.iter().copied().max().unwrap_or(0);
    m.insert("simnet.cmds_per_wall_s".into(), commits as f64 / wall_s);

    let commit_ms = if load.read_permille > 0 {
        result.write_p50_ms
    } else {
        let medians: Vec<f64> = result
            .site_stats
            .iter_mut()
            .filter(|s| !s.is_empty())
            .map(LatencyStats::p50_ms)
            .collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    };
    m.insert("simnet.clock_rsm.commit_ms".into(), commit_ms);
    m.insert(
        "simnet.clock_rsm.kops_virtual".into(),
        result.throughput_kops,
    );
    let commit_gap = commit_ms / runtime.commit_ms - 1.0;
    m.insert("simnet.commit_vs_runtime_frac".into(), commit_gap);
    // Rounding up to whole clients per site can leave the simulator
    // more clients than the generator has commands outstanding (five
    // against two on `geo5`); a closed loop's throughput is
    // proportional to them, so compare per outstanding command.
    let per_client = outstanding as f64 / (clients_per_site * sites) as f64;
    m.insert(
        "simnet.kops_vs_runtime_frac".into(),
        result.throughput_kops * per_client / runtime.kops - 1.0,
    );
    // The paper's formula for a replica proposing alone at light load
    // (the extension's Δ = 5 ms), averaged over the sites.
    let model_us: Micros = matrix
        .replicas()
        .map(|r| analysis::model::clock_rsm_imbalanced_light(&matrix, r, 5_000))
        .sum();
    m.insert(
        "analysis.clock_rsm.model_ms".into(),
        model_us as f64 / sites as f64 / 1e3,
    );
    commit_gap
}

#[cfg(test)]
mod tests {
    use super::*;

    const BRIEF: Duration = Duration::from_millis(5);

    #[test]
    fn every_protocol_core_commits_under_the_step_driver() {
        // `step_costs` asserts that all three replicas committed every
        // command; the exact per-command message count is the batch's
        // two prepares/accepts plus three broadcast acknowledgements.
        let mut m = Metrics::new();
        let budget = Budget {
            each: BRIEF,
            uds: false,
        };
        for proto in Proto::ALL {
            step(&mut m, proto, 1, budget);
            let p = proto.name();
            assert_eq!(m[&format!("step.{p}.msgs_per_cmd.b64")], 8.0 / 64.0, "{p}");
            assert!(m[&format!("step.{p}.bytes_per_cmd.b64")] > 16.0, "{p}");
        }
    }

    #[test]
    fn null_protocol_commits_at_origin_or_after_the_echo() {
        let mut at_origin = StepCluster::new(NullProtocol::commit_at_origin, 1);
        at_origin.run(4, BRIEF);
        assert_eq!(at_origin.net.commits, [at_origin.cmds, 0, 0]);
        assert_eq!(at_origin.net.msgs, 0);

        let mut bounced = StepCluster::new(|id| NullProtocol::bounce(id, 3), 1);
        bounced.run(4, BRIEF);
        assert_eq!(bounced.net.commits, [bounced.cmds, 0, 0]);
        // One ping and one pong per batch of four.
        assert_eq!(bounced.net.msgs, bounced.cmds / 4 * 2);
    }

    #[test]
    fn null_messages_round_trip_through_the_codec() {
        use crate::null::NullMsg;
        for msg in [NullMsg::Ping(7), NullMsg::Pong(u64::MAX)] {
            let back: NullMsg = decode_payload(encode_payload(&msg)).expect("decodes");
            assert_eq!(back, msg);
        }
        assert!(
            decode_payload::<NullMsg>(Bytes::from_static(&[9, 0, 0, 0, 0, 0, 0, 0, 0])).is_err()
        );
    }
}
