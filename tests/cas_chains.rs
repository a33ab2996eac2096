//! CAS-chain validation: the sharpest end-to-end linearizability probe.
//!
//! Each client maintains one key and advances it through a chain of
//! compare-and-swap operations (`None→1→2→…`). Under a linearizable RSM
//! with at-most-once visible execution:
//!
//! * a CAS succeeds iff it observes the client's previous value, so a
//!   reordered, lost-then-duplicated, or double-executed command breaks
//!   the chain immediately;
//! * after quiescence, every replica's value for the key equals the
//!   number of successful CAS operations the client observed.
//!
//! We run the chains through the simulator directly (a custom
//! Application) on Clock-RSM — both failure-free and across a
//! crash/recover cycle with client-side retries.

use bytes::Bytes;
use clock_rsm::{ClockRsm, ClockRsmConfig};
use kvstore::{KvOp, KvStore};
use rsm_core::command::{Command, CommandId, Reply};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::time::MILLIS;
use rsm_core::{LatencyMatrix, Membership};
use simnet::sim::{Application, SimApi};
use simnet::{SimConfig, Simulation};

/// One CAS-chain client per site; key = the client id, value = a counter.
struct CasApp {
    n: u16,
    /// The counter value each client knows is committed.
    confirmed: Vec<u64>,
    seq: Vec<u64>,
    /// Whether the client's outstanding command is a probe read (issued
    /// after a CAS failure to verify the value advanced by exactly one).
    probing: Vec<bool>,
    chain_broken: Vec<Option<String>>,
    successes: Vec<u64>,
    /// Scripted crash/recover (replica, crash_at, recover_at).
    fault: Option<(u16, u64, u64)>,
    stop_at: u64,
}

const RETRY_KEY: u64 = 1 << 40;
const FAULT_KEY: u64 = 1 << 41;

impl CasApp {
    fn new(n: u16, fault: Option<(u16, u64, u64)>, stop_at: u64) -> Self {
        CasApp {
            n,
            confirmed: vec![0; n as usize],
            seq: vec![0; n as usize],
            probing: vec![false; n as usize],
            chain_broken: vec![None; n as usize],
            successes: vec![0; n as usize],
            fault,
            stop_at,
        }
    }

    fn issue_op(&mut self, site: usize, op: KvOp, probe: bool, api: &mut SimApi<'_, ClockRsm>) {
        if api.now() >= self.stop_at {
            return;
        }
        self.seq[site] += 1;
        self.probing[site] = probe;
        let id = CommandId::new(
            ClientId::new(ReplicaId::new(site as u16), 0),
            self.seq[site],
        );
        api.submit(ReplicaId::new(site as u16), Command::new(id, op.encode()));
        // Client-side retry: commands lost to a reconfiguration re-issue
        // with a fresh id (a probe re-reads; a CAS re-attempts the SAME
        // expected value, so a lost-but-committed attempt surfaces as a
        // failed retry, which the probe then validates).
        api.schedule(
            2_000 * MILLIS,
            RETRY_KEY | ((site as u64) << 20) | self.seq[site],
        );
    }

    fn issue(&mut self, site: usize, api: &mut SimApi<'_, ClockRsm>) {
        let expect = if self.confirmed[site] == 0 {
            None
        } else {
            Some(Bytes::from(self.confirmed[site].to_string()))
        };
        let op = KvOp::cas(
            format!("chain{site}"),
            expect,
            (self.confirmed[site] + 1).to_string(),
        );
        self.issue_op(site, op, false, api);
    }

    fn probe(&mut self, site: usize, api: &mut SimApi<'_, ClockRsm>) {
        let op = KvOp::get(format!("chain{site}"));
        self.issue_op(site, op, true, api);
    }
}

impl Application<ClockRsm> for CasApp {
    fn on_init(&mut self, api: &mut SimApi<'_, ClockRsm>) {
        for site in 0..self.n as usize {
            self.issue(site, api);
        }
        if let Some((r, crash_at, recover_at)) = self.fault {
            api.crash(ReplicaId::new(r), crash_at);
            api.recover(ReplicaId::new(r), recover_at);
            api.schedule(crash_at, FAULT_KEY); // marker only
        }
    }

    fn on_event(&mut self, key: u64, api: &mut SimApi<'_, ClockRsm>) {
        if key >= FAULT_KEY {
            return;
        }
        if key >= RETRY_KEY {
            let site = ((key >> 20) & 0xFFFFF) as usize;
            let seq = key & 0xFFFFF;
            if self.seq[site] & 0xFFFFF == seq {
                // Still outstanding: the command (or its reply) was lost.
                if self.probing[site] {
                    self.probe(site, api);
                } else {
                    self.issue(site, api);
                }
            }
        }
    }

    fn on_reply(&mut self, client: ClientId, reply: Reply, api: &mut SimApi<'_, ClockRsm>) {
        let site = client.site().index();
        if reply.id.seq != self.seq[site] {
            return; // stale reply for a superseded attempt
        }
        if self.chain_broken[site].is_some() {
            return;
        }
        if self.probing[site] {
            // Probe read after a CAS failure: with a closed-loop client at
            // most ONE unaccounted attempt exists, so the only legitimate
            // value is confirmed + 1 (the lost attempt committed).
            let value: u64 = if reply.result[0] == 0 {
                0
            } else {
                String::from_utf8_lossy(&reply.result[1..])
                    .parse()
                    .unwrap_or(u64::MAX)
            };
            if value == self.confirmed[site] + 1 {
                self.confirmed[site] = value;
                self.successes[site] += 1; // the lost attempt did succeed
                self.issue(site, api);
            } else {
                self.chain_broken[site] = Some(format!(
                    "probe saw {value}, expected {}",
                    self.confirmed[site] + 1
                ));
            }
            return;
        }
        if reply.result[0] == 1 {
            // CAS succeeded: the chain advanced by exactly one.
            self.confirmed[site] += 1;
            self.successes[site] += 1;
            self.issue(site, api);
        } else {
            // CAS failed: verify via a linearizable read that exactly one
            // lost attempt committed; anything else breaks the chain.
            self.probe(site, api);
        }
    }
}

fn run_chains(
    n: u16,
    fault: Option<(u16, u64, u64)>,
    until: u64,
) -> (Vec<u64>, Vec<Option<String>>, Simulation<ClockRsm, CasApp>) {
    let cfg = SimConfig::new(LatencyMatrix::uniform(n as usize, 15_000)).seed(5);
    let rsm_cfg = if fault.is_some() {
        ClockRsmConfig::default()
            .with_delta_us(Some(50 * MILLIS))
            .with_failure_detection(Some(400 * MILLIS))
    } else {
        ClockRsmConfig::default()
    };
    let app = CasApp::new(n, fault, until - 2_000 * MILLIS);
    let mut sim = Simulation::new(
        cfg,
        move |id| ClockRsm::new(id, Membership::uniform(n), rsm_cfg),
        || Box::new(KvStore::new()),
        app,
    );
    sim.run_until(until);
    let confirmed = sim.app().confirmed.clone();
    let broken = sim.app().chain_broken.clone();
    (confirmed, broken, sim)
}

/// Failure-free chains: every CAS must succeed (no retries fire), and the
/// final replicated value equals the confirmed count exactly.
#[test]
fn chains_advance_without_failures() {
    let (confirmed, broken, sim) = run_chains(3, None, 8_000 * MILLIS);
    assert!(broken.iter().all(Option::is_none), "{broken:?}");
    #[allow(clippy::needless_range_loop)] // site indexes two parallel vecs
    for site in 0..3usize {
        assert!(
            confirmed[site] > 20,
            "site {site} advanced only to {}",
            confirmed[site]
        );
        // All ops succeeded: confirmed == successes (no lost commands).
        assert_eq!(
            sim.app().successes[site],
            confirmed[site],
            "site {site}: some CAS failed in a failure-free run"
        );
    }
    // Replicated state converged everywhere.
    for r in 1..3u16 {
        assert_eq!(
            sim.snapshot(ReplicaId::new(r)),
            sim.snapshot(ReplicaId::new(0)),
            "replica {r} diverged"
        );
    }
}

/// Chains survive a crash + recovery: some CAS attempts are lost to the
/// reconfiguration and retried; the chain never skips or repeats a value,
/// and all replicas converge to the clients' confirmed counters.
#[test]
fn chains_survive_crash_and_recovery() {
    let (confirmed, broken, sim) = run_chains(
        3,
        Some((2, 2_000 * MILLIS, 5_000 * MILLIS)),
        14_000 * MILLIS,
    );
    assert!(broken.iter().all(Option::is_none), "{broken:?}");
    // Chains at the surviving sites kept advancing through the fault.
    assert!(confirmed[0] > 30, "site 0 stalled: {confirmed:?}");
    assert!(confirmed[1] > 30, "site 1 stalled: {confirmed:?}");
    // Convergence across all three replicas (r2 rejoined).
    for r in 1..3u16 {
        assert_eq!(
            sim.snapshot(ReplicaId::new(r)),
            sim.snapshot(ReplicaId::new(0)),
            "replica {r} diverged"
        );
    }
    // The per-reply accounting (every advance is either a confirmed CAS
    // success or a probe-verified lost commit) plus snapshot equality pin
    // down at-most-once visible execution across the reconfiguration.
}
