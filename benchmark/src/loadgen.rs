//! The load generator: windowed closed-loop client threads.
//!
//! Each thread owns one `ClientId` with a monotone sequence. A turn
//! picks a site, hands it `window - 1` commands through
//! `Cluster::submit` without waiting, then issues the last through a
//! blocking call. Clients reach a site over one FIFO queue and every
//! protocol executes a site's commands in submission order, so the
//! reply to the last command is a fence for the whole turn: when it
//! arrives, the site has executed all `window` commands. (Checked after
//! the run: every replica's commit count covers every acknowledged op.)
//! `window == 1` is the classic closed loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rsm_core::command::{Command, CommandId};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::obs::span_key;
use rsm_core::protocol::Protocol;
use rsm_obs::Tracer;
use rsm_runtime::Cluster;

use crate::ops::{reply_ok, Op, OpStream};
use crate::workload::Load;

/// How long a blocking call may take before it counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Client threads: one per core up to three, so the generator never
/// has more runnable threads than the machine has cores.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(3))
}

/// One blocking call and the turn it fenced. Times are microseconds
/// since the benchmark epoch.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_us: u64,
    pub latency_us: u64,
    pub site: usize,
    pub read: bool,
    /// Commands the reply acknowledged (the window).
    pub ops: u64,
    pub ok: bool,
}

/// The benchmark's own span around one traced command: when the client
/// called into the cluster, and when the blocking call returned.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    pub key: u64,
    pub call_us: u64,
    pub return_us: Option<u64>,
}

#[derive(Debug, Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub spans: Vec<ClientSpan>,
}

/// What the client threads of one run share.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// Replicas of the cluster.
    pub sites: usize,
    pub load: &'a Load,
    pub seed: u64,
    /// Thread `t` is client number `first_client + t`. A second run
    /// against the same cluster needs fresh clients: a replica's
    /// session table drops a known client's sequence numbers that
    /// start over as stale.
    pub first_client: u32,
    /// Zero of every time the run records.
    pub epoch: Instant,
}

/// Runs client thread `thread` against `cluster` until `stop` is set.
/// Turn `k` goes to site `(k + 2·thread) mod n`, which spreads every
/// thread's load over every site.
fn run_client<P: Protocol + Send + 'static>(
    cluster: &Cluster<P>,
    run: Run<'_>,
    thread: usize,
    stop: &AtomicBool,
) -> ClientLog {
    let Run {
        sites,
        load: w,
        seed,
        first_client,
        epoch,
    } = run;
    assert!(
        w.window == 1 || w.read_permille == 0,
        "only a blocking call can be a read"
    );
    let now_us = || epoch.elapsed().as_micros() as u64;
    let tracer: Option<&Tracer> = cluster.tracer();
    let traced = |id: CommandId| {
        let key = span_key(id);
        tracer.filter(|t| t.sampled(key)).map(|_| key)
    };
    let client = ClientId::new(ReplicaId::new(0), first_client + thread as u32);
    let mut stream = OpStream::new(seed, thread, w.keys, w.read_permille, w.value_bytes);
    let mut log = ClientLog::default();
    let mut seq = 0u64;
    let mut turn = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let site = ((turn + 2 * thread as u64) % sites as u64) as usize;
        let replica = ReplicaId::new(site as u16);
        turn += 1;
        for _ in 1..w.window {
            seq += 1;
            let op = stream.next_op();
            let cmd = Command::new(CommandId::new(client, seq), stream.payload(op));
            if let Some(key) = traced(cmd.id) {
                log.spans.push(ClientSpan {
                    key,
                    call_us: now_us(),
                    return_us: None,
                });
            }
            cluster.submit(replica, cmd);
        }
        let op = stream.next_op();
        let payload = stream.payload(op);
        let call_us = now_us();
        let (result, key) = match op {
            Op::Get { .. } => (cluster.read(replica, payload, OP_TIMEOUT), None),
            Op::Put { .. } => {
                seq += 1;
                let cmd = Command::new(CommandId::new(client, seq), payload);
                let key = traced(cmd.id);
                (cluster.execute_command(replica, cmd, OP_TIMEOUT), key)
            }
        };
        let done_us = now_us();
        if let Some(key) = key {
            log.spans.push(ClientSpan {
                key,
                call_us,
                return_us: Some(done_us),
            });
        }
        log.samples.push(Sample {
            done_us,
            latency_us: done_us - call_us,
            site,
            read: matches!(op, Op::Get { .. }),
            ops: w.window as u64,
            ok: result.is_ok_and(|r| reply_ok(op, &r.result, w.value_bytes)),
        });
    }
    log
}

/// A point of a [`drive`]n run at which the caller may take readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Moment {
    /// The measured window opens (warm-up is over).
    Start,
    /// Every 100 ms inside the window.
    Tick,
    /// The measured window closes.
    End,
}

/// Runs the generator's client threads against `cluster`: `warmup_s`
/// of load (at most a quarter of `seconds`, so short smoke runs stay
/// short), then a measured window of `seconds`. The calling thread
/// only keeps time and calls `observe` at each [`Moment`]. Returns the
/// clients' logs and the window, in microseconds since `run.epoch`.
pub fn drive<P: Protocol + Send + 'static>(
    cluster: &Cluster<P>,
    run: Run<'_>,
    seconds: f64,
    mut observe: impl FnMut(Moment),
) -> (Vec<ClientLog>, std::ops::Range<u64>) {
    let now_us = || run.epoch.elapsed().as_micros() as u64;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..generator_threads())
            .map(|t| {
                let stop = &stop;
                s.spawn(move || run_client(cluster, run, t, stop))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(
            run.load.warmup_s.min(seconds / 4.0),
        ));
        observe(Moment::Start);
        let start_us = now_us();
        let end_at = start_us + (seconds * 1e6) as u64;
        loop {
            let left = Duration::from_micros(end_at.saturating_sub(now_us()));
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(Duration::from_millis(100)));
            observe(Moment::Tick);
        }
        let end_us = now_us();
        observe(Moment::End);
        stop.store(true, Ordering::Relaxed);
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, start_us..end_us)
    })
}
