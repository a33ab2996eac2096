//! Property tests of the simulator substrate itself: per-link FIFO under
//! arbitrary jitter, strict clock monotonicity under arbitrary deviation
//! models, and bit-exact determinism.

use bytes::Bytes;
use proptest::prelude::*;
use rsm_core::batch::Batch;
use rsm_core::command::{Command, CommandId, Committed, Reply};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::matrix::LatencyMatrix;
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::sm::StateMachine;
use rsm_core::time::Micros;
use rsm_core::wire::WireSize;
use simnet::sim::{Application, SimApi};
use simnet::{ClockModel, PhysicalClock, SimConfig, Simulation};

/// A protocol that stamps every message with a send sequence number so
/// receivers can verify FIFO, and reads its clock on every event to
/// verify monotonicity.
struct Probe {
    id: ReplicaId,
    n: u16,
    sent: u64,
    received_from: Vec<u64>,
    last_clock: Micros,
    clock_regressions: Vec<(Micros, Micros)>,
    fifo_ok: bool,
}

#[derive(Clone, Debug)]
struct Seq(u64);

impl WireSize for Seq {
    fn wire_size(&self) -> usize {
        40
    }
}

impl Protocol for Probe {
    type Msg = Seq;
    type LogRec = ();

    fn id(&self) -> ReplicaId {
        self.id
    }
    fn on_start(&mut self, _ctx: &mut dyn Context<Self>) {}
    fn on_client_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        for cmd in batch {
            let c = ctx.clock();
            if c <= self.last_clock {
                self.clock_regressions.push((self.last_clock, c));
            }
            self.last_clock = c;
            self.sent += 1;
            for i in 0..self.n {
                ctx.send(ReplicaId::new(i), Seq(self.sent));
            }
            ctx.commit(Committed {
                cmd,
                origin: self.id,
                order_hint: self.sent,
            });
        }
    }
    fn on_message(&mut self, from: ReplicaId, msg: Seq, ctx: &mut dyn Context<Self>) {
        let c = ctx.clock();
        if c <= self.last_clock {
            self.clock_regressions.push((self.last_clock, c));
        }
        self.last_clock = c;
        let prev = &mut self.received_from[from.index()];
        self.fifo_ok &= msg.0 == *prev + 1;
        *prev = msg.0;
    }
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut dyn Context<Self>) {}
    fn on_recover(&mut self, _log: &[()], _ctx: &mut dyn Context<Self>) {}
}

struct Driver {
    submissions: Vec<(Micros, u16)>,
}

impl Application<Probe> for Driver {
    fn on_init(&mut self, api: &mut SimApi<'_, Probe>) {
        for (i, &(at, _)) in self.submissions.iter().enumerate() {
            api.schedule(at, i as u64);
        }
    }
    fn on_event(&mut self, key: u64, api: &mut SimApi<'_, Probe>) {
        let (_, site) = self.submissions[key as usize];
        let id = CommandId::new(ClientId::new(ReplicaId::new(site), 0), key + 1);
        api.submit(
            ReplicaId::new(site),
            Command::new(id, Bytes::from_static(b"p")),
        );
    }
    fn on_reply(&mut self, _c: ClientId, _r: Reply, _api: &mut SimApi<'_, Probe>) {}
}

#[derive(Default)]
struct NullSm;
impl StateMachine for NullSm {
    fn apply(&mut self, _cmd: &Command) -> Bytes {
        Bytes::new()
    }
    fn snapshot(&self) -> Bytes {
        Bytes::new()
    }
    fn reset(&mut self) {}
    fn restore(&mut self, snapshot: &[u8]) -> bool {
        snapshot.is_empty()
    }
}

#[allow(clippy::type_complexity)]
fn run_probe(
    n: u16,
    latency_us: Micros,
    jitter_us: Micros,
    seed: u64,
    clock: ClockModel,
    submissions: Vec<(Micros, u16)>,
) -> Vec<(bool, Vec<(Micros, Micros)>, u64)> {
    let cfg = SimConfig::new(LatencyMatrix::uniform(n as usize, latency_us))
        .seed(seed)
        .jitter_us(jitter_us)
        .clock_model(clock);
    let mut sim = Simulation::new(
        cfg,
        move |id| Probe {
            id,
            n,
            sent: 0,
            received_from: vec![0; n as usize],
            last_clock: 0,
            clock_regressions: Vec::new(),
            fifo_ok: true,
        },
        || Box::new(NullSm),
        Driver { submissions },
    );
    sim.run_until(60_000_000);
    (0..n)
        .map(|i| {
            let p = sim.protocol(ReplicaId::new(i));
            (
                p.fifo_ok,
                p.clock_regressions.clone(),
                p.received_from.iter().sum::<u64>(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FIFO holds per link for any jitter magnitude, and clocks read
    /// strictly monotonically under any deviation model.
    #[test]
    fn fifo_and_clock_invariants(
        n in 2u16..6,
        latency in 100u64..50_000,
        jitter in 0u64..50_000,
        seed in any::<u64>(),
        bound in 0u64..100_000,
        drift in -400f64..400.0,
        subs in proptest::collection::vec((0u64..1_000_000, 0u16..6), 1..60),
    ) {
        let submissions: Vec<(Micros, u16)> =
            subs.into_iter().map(|(t, s)| (t, s % n)).collect();
        let expected: u64 = submissions.len() as u64;
        let clock = ClockModel::ntp(bound).with_drift_ppm(drift);
        let results = run_probe(n, latency, jitter, seed, clock, submissions);
        for (i, (fifo_ok, regressions, received)) in results.iter().enumerate() {
            prop_assert!(*fifo_ok, "replica {}: FIFO violated", i);
            prop_assert!(
                regressions.is_empty(),
                "replica {}: clock regressed: {:?}", i, regressions
            );
            // Every broadcast reaches every replica (no loss in a
            // fault-free run): each submission broadcasts once to all.
            prop_assert_eq!(*received, expected, "replica {} lost messages", i);
        }
    }

    /// Bit-exact determinism for arbitrary seeds and jitter.
    #[test]
    fn runs_are_deterministic(
        seed in any::<u64>(),
        jitter in 0u64..20_000,
    ) {
        let subs = vec![(1_000, 0), (2_000, 1), (2_000, 2), (50_000, 0)];
        let a = run_probe(3, 10_000, jitter, seed, ClockModel::ntp(5_000), subs.clone());
        let b = run_probe(3, 10_000, jitter, seed, ClockModel::ntp(5_000), subs);
        prop_assert_eq!(a, b);
    }

    /// The physical clock itself: raw readings never decrease for valid
    /// models, and reads are strictly increasing.
    #[test]
    fn physical_clock_monotonic(
        offset in -1_000_000i64..1_000_000,
        drift in -400f64..400.0,
        bound in 0u64..2_000_000,
        times in proptest::collection::vec(0u64..100_000_000, 2..50),
    ) {
        let model = ClockModel {
            offset_us: offset,
            drift_ppm: drift,
            sync_bound_us: bound,
        };
        let mut sorted = times;
        sorted.sort_unstable();
        let mut clock = PhysicalClock::new(model);
        let mut last = None;
        for t in sorted {
            let v = clock.read(t);
            if let Some(prev) = last {
                prop_assert!(v > prev, "clock regressed: {v} after {prev}");
            }
            last = Some(v);
        }
    }
}
